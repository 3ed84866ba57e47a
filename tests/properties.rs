//! Cross-crate property tests: on randomly generated query graphs, the
//! optimizer's invariants must hold regardless of structure, weights or
//! ground truth.

use cdb::core::candidate::{enumerate_candidates, CandidateFilter};
use cdb::core::cost::expectation::{expectation_order, pruning_expectations};
use cdb::core::cost::known::select_known_colors;
use cdb::core::executor::{true_answers, EdgeTruth, Executor, ExecutorConfig};
use cdb::core::latency::{edges_conflict, parallel_round};
use cdb::core::model::{EdgeId, PartKind, QueryGraph};
use cdb::core::SimCrowd;
use cdb::crowd::{Market, SimulatedPlatform, WorkerPool};
use proptest::prelude::*;

/// Strategy: a random 3-part chain graph with random edges/weights plus a
/// random ground truth per edge.
fn chain_graph() -> impl Strategy<Value = (QueryGraph, EdgeTruth)> {
    // sizes: up to 4 tuples per part; edge present with ~60%, weight in
    // (0.3, 1.0), truth biased by weight.
    (
        2usize..=4,
        2usize..=4,
        2usize..=4,
        prop::collection::vec((any::<bool>(), 0.3f64..0.99, any::<bool>()), 48),
    )
        .prop_map(|(na, nb, nc, edges)| {
            let mut g = QueryGraph::new();
            let a = g.add_part(PartKind::Table { name: "A".into() });
            let b = g.add_part(PartKind::Table { name: "B".into() });
            let c = g.add_part(PartKind::Table { name: "C".into() });
            let an: Vec<_> = (0..na).map(|i| g.add_node(a, None, format!("a{i}"))).collect();
            let bn: Vec<_> = (0..nb).map(|i| g.add_node(b, None, format!("b{i}"))).collect();
            let cn: Vec<_> = (0..nc).map(|i| g.add_node(c, None, format!("c{i}"))).collect();
            let p_ab = g.add_predicate(a, b, true, "A~B");
            let p_bc = g.add_predicate(b, c, true, "B~C");
            let mut truth = EdgeTruth::new();
            let mut k = 0usize;
            for &x in &an {
                for &y in &bn {
                    let (present, w, t) = edges[k % edges.len()];
                    k += 1;
                    if present {
                        let e = g.add_edge(x, y, p_ab, w);
                        truth.insert(e, t);
                    }
                }
            }
            for &y in &bn {
                for &z in &cn {
                    let (present, w, t) = edges[k % edges.len()];
                    k += 1;
                    if present {
                        let e = g.add_edge(y, z, p_bc, w);
                        truth.insert(e, t);
                    }
                }
            }
            (g, truth)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The known-color selection refutes every non-answer and fully asks
    /// every answer, on arbitrary chain graphs.
    #[test]
    fn known_color_selection_sound((g, truth) in chain_graph()) {
        let oracle = |e: EdgeId| truth[&e];
        let sel = select_known_colors(&g, &oracle);
        for c in enumerate_candidates(&g, CandidateFilter::Live) {
            let all_blue = c.edges.iter().all(|&e| truth[&e]);
            if all_blue {
                prop_assert!(c.edges.iter().all(|e| sel.contains(e)));
            } else {
                prop_assert!(c.edges.iter().any(|&e| !truth[&e] && sel.contains(&e)));
            }
        }
    }

    /// With perfect workers, the executor returns exactly the true
    /// answers, no matter the structure.
    #[test]
    fn perfect_workers_exact_answers((g, truth) in chain_graph()) {
        let mut p = SimulatedPlatform::new(
            Market::Amt,
            WorkerPool::with_accuracies(&[1.0; 12]),
            0,
        );
        let stats = Executor::new(g.clone(), &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default()).run();
        let expected: std::collections::BTreeSet<_> =
            true_answers(&g, &truth).into_iter().map(|c| c.binding).collect();
        prop_assert_eq!(stats.answer_bindings(), expected);
    }

    /// The executor never asks more tasks than there are live edges, and
    /// never asks an invalid edge.
    #[test]
    fn executor_cost_bounded((g, truth) in chain_graph()) {
        let open_before = g.open_edges().len();
        let mut p = SimulatedPlatform::new(
            Market::Amt,
            WorkerPool::with_accuracies(&[1.0; 12]),
            1,
        );
        let stats = Executor::new(g, &mut SimCrowd::new(&mut p, &truth), ExecutorConfig::default()).run();
        prop_assert!(stats.tasks_asked <= open_before);
    }

    /// Rounds are made of pairwise non-conflicting edges.
    #[test]
    fn rounds_are_conflict_free((g, _) in chain_graph()) {
        let order = expectation_order(&g);
        let round = parallel_round(&g, &order);
        for (i, &e1) in round.iter().enumerate() {
            for &e2 in &round[i + 1..] {
                prop_assert!(!edges_conflict(&g, e1, e2));
            }
        }
    }

    /// Pruning expectations are finite and non-negative.
    #[test]
    fn expectations_well_formed((g, _) in chain_graph()) {
        for (_, ex) in pruning_expectations(&g) {
            prop_assert!(ex.is_finite());
            prop_assert!(ex >= 0.0);
        }
    }

    /// Budget executions never exceed the budget and keep perfect
    /// precision with perfect workers.
    #[test]
    fn budget_respected((g, truth) in chain_graph(), budget in 0usize..10) {
        let mut p = SimulatedPlatform::new(
            Market::Amt,
            WorkerPool::with_accuracies(&[1.0; 12]),
            2,
        );
        let stats = Executor::new(g.clone(), &mut SimCrowd::new(&mut p, &truth), ExecutorConfig { budget: Some(budget), ..ExecutorConfig::default() })
        .run();
        prop_assert!(stats.tasks_asked <= budget);
        // All reported answers are genuine (perfect workers, so any
        // complete all-blue candidate is truly all-blue).
        let reference: std::collections::BTreeSet<_> =
            true_answers(&g, &truth).into_iter().map(|c| c.binding).collect();
        for b in stats.answer_bindings() {
            prop_assert!(reference.contains(&b));
        }
    }
}
