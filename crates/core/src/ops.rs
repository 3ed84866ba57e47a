//! Crowd-powered sort and group (the §4.2 Remark).
//!
//! The paper's optimizer focuses on selections and joins; for queries
//! that also want crowd-powered `ORDER BY` or `GROUP BY`, CDB "first
//! execute\[s\] the crowd-based selection and join operations … and then
//! group\[s\] the results by applying existing crowdsourced entity
//! resolution approaches", and analogously sorts with pairwise-comparison
//! techniques. This module provides both post-processing operators over
//! the (simulated) crowd:
//!
//! * [`crowd_sort`] — pairwise comparison tasks aggregated by Copeland
//!   score (wins minus losses), the standard rank aggregation of the
//!   crowdsourced-sort literature;
//! * [`crowd_group`] — similarity-pruned pair verification with
//!   transitive closure, i.e. crowdsourced ER over the group keys.

use cdb_crowd::{Answer, Question, SimulatedPlatform, Task, TaskId, TaskKind};
use cdb_graph::{Entailment, EntailmentGraph};
use cdb_quality::majority_vote;
use cdb_similarity::{similarity_join_self, SimilarityFn};

/// Result of a crowd-powered sort.
#[derive(Debug, Clone)]
pub struct SortOutcome {
    /// Item indices in descending crowd-judged order.
    pub order: Vec<usize>,
    /// Comparison tasks asked.
    pub tasks_asked: usize,
    /// Crowd rounds used.
    pub rounds: usize,
}

/// Sort `items` descending by crowd judgment. `truth_rank[i]` is the
/// latent true rank of item `i` (smaller = greater) used to simulate
/// worker answers; `redundancy` workers vote per comparison.
///
/// Asks all `n·(n−1)/2` comparisons in parallel batches of
/// non-overlapping pairs (a round-robin tournament schedule) and
/// aggregates by Copeland score, which is robust to a minority of wrong
/// comparisons.
pub fn crowd_sort(
    items: &[String],
    truth_rank: &[usize],
    platform: &mut SimulatedPlatform,
    redundancy: usize,
) -> SortOutcome {
    assert_eq!(items.len(), truth_rank.len(), "one rank per item");
    let n = items.len();
    if n <= 1 {
        return SortOutcome { order: (0..n).collect(), tasks_asked: 0, rounds: 0 };
    }
    let mut wins = vec![0i64; n];
    let mut tasks_asked = 0usize;
    let mut rounds = 0usize;

    // Round-robin (circle method) schedule: pad odd n with a bye slot,
    // fix position 0 and rotate the rest; each of the padded_n − 1 rounds
    // pairs every item at most once, so comparisons within a round are
    // independent, and across all rounds every pair occurs exactly once.
    const BYE: usize = usize::MAX;
    let mut idx: Vec<usize> = (0..n).collect();
    if n % 2 == 1 {
        idx.push(BYE);
    }
    let rounds_needed = idx.len() - 1;
    let half = idx.len() / 2;
    for _ in 0..rounds_needed {
        let mut batch: Vec<(usize, usize)> = Vec::with_capacity(half);
        for k in 0..half {
            let a = idx[k];
            let b = idx[idx.len() - 1 - k];
            if a != b && a != BYE && b != BYE {
                batch.push((a.min(b), a.max(b)));
            }
        }
        if batch.is_empty() {
            idx[1..].rotate_right(1);
            continue;
        }
        let tasks: Vec<Task> = batch
            .iter()
            .enumerate()
            .map(|(t, &(a, b))| Task {
                id: TaskId(t as u64),
                // Choice 0 = first item greater.
                kind: TaskKind::SingleChoice {
                    choices: 2,
                    truth: usize::from(truth_rank[a] > truth_rank[b]),
                },
                difficulty: 1.0,
            })
            .collect();
        let answers = platform.ask_round(&tasks, redundancy);
        tasks_asked += batch.len();
        rounds += 1;
        let mut votes: Vec<Vec<usize>> = vec![Vec::new(); batch.len()];
        for a in answers {
            if let Answer::Choice(c) = a.answer {
                votes[a.task.0 as usize].push(c);
            }
        }
        for (t, &(a, b)) in batch.iter().enumerate() {
            let first_wins = majority_vote(&votes[t], 2) == 0;
            if first_wins {
                wins[a] += 1;
                wins[b] -= 1;
            } else {
                wins[b] += 1;
                wins[a] -= 1;
            }
        }
        // Rotate (keep idx[0] fixed).
        idx[1..].rotate_right(1);
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| wins[b].cmp(&wins[a]).then(a.cmp(&b)));
    SortOutcome { order, tasks_asked, rounds }
}

/// Result of a crowd-powered group-by.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// `groups[k]` is the sorted list of item indices of group `k`.
    pub groups: Vec<Vec<usize>>,
    /// Verification tasks asked.
    pub tasks_asked: usize,
    /// Crowd rounds used.
    pub rounds: usize,
}

/// Group `keys` by crowd-judged equality. Pairs below `epsilon` similarity
/// are pruned machine-side; the remaining pairs are verified by the crowd
/// (skipping pairs already implied by transitivity), then groups are the
/// connected components of the confirmed matches. `truth(i, j)` is the
/// latent ground truth for simulation.
pub fn crowd_group(
    keys: &[String],
    truth: &dyn Fn(usize, usize) -> bool,
    platform: &mut SimulatedPlatform,
    redundancy: usize,
    similarity: SimilarityFn,
    epsilon: f64,
) -> GroupOutcome {
    let n = keys.len();
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let mut pairs: Vec<(usize, usize, f64)> = similarity_join_self(&refs, similarity, epsilon)
        .into_iter()
        .map(|p| (p.left, p.right, p.sim))
        .collect();
    // Most-similar first maximizes transitive savings.
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));

    // Entailment over crowd answers: positive transitivity *and* negative
    // propagation (a = b, b ≠ c ⇒ a ≠ c). The previous implementation
    // kept a negative set keyed by DSU roots frozen at insertion time;
    // after later unions re-rooted a component those entries never matched
    // again, silently re-asking pairs the answers already determined.
    let mut entail = EntailmentGraph::new(n);
    let mut tasks_asked = 0usize;
    let mut rounds = 0usize;
    let mut remaining = pairs;
    while !remaining.is_empty() {
        // Build one round: skip pairs the entailment already decides;
        // defer pairs whose clusters are already touched this round (their
        // answer may become inferable from this round's merges).
        let mut batch: Vec<(usize, usize, f64)> = Vec::new();
        let mut deferred: Vec<(usize, usize, f64)> = Vec::new();
        let mut touched: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for &(i, j, s) in &remaining {
            if entail.entails(i, j) != Entailment::Unknown {
                continue;
            }
            let (ci, cj) = (entail.root(i), entail.root(j));
            if touched.contains(&ci) || touched.contains(&cj) {
                deferred.push((i, j, s));
                continue;
            }
            touched.insert(ci);
            touched.insert(cj);
            batch.push((i, j, s));
        }
        remaining = deferred;
        if batch.is_empty() {
            break;
        }
        let tasks: Vec<Task> = batch
            .iter()
            .enumerate()
            .map(|(t, &(i, j, s))| {
                let q =
                    Question { id: TaskId(t as u64), difficulty: cdb_crowd::join_difficulty(s) };
                Task::join_check(q, truth(i, j))
            })
            .collect();
        let answers = platform.ask_round(&tasks, redundancy);
        tasks_asked += batch.len();
        rounds += 1;
        let mut votes: Vec<Vec<usize>> = vec![Vec::new(); batch.len()];
        for a in answers {
            if let Answer::Choice(c) = a.answer {
                votes[a.task.0 as usize].push(c);
            }
        }
        for (t, &(i, j, _)) in batch.iter().enumerate() {
            let same = majority_vote(&votes[t], 2) == 0;
            // A noisy answer can contradict the closure (e.g. "no" on a
            // pair already entailed equal); the assertion is rejected and
            // the earlier answers stand.
            if same {
                entail.assert_same(i, j);
            } else {
                entail.assert_different(i, j);
            }
        }
    }

    // Materialize groups in first-appearance order.
    let mut group_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let root = entail.root(i);
        let g = *group_of.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    GroupOutcome { groups, tasks_asked, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_crowd::{Market, WorkerPool};

    fn platform(acc: f64, seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[acc; 20]), seed)
    }

    #[test]
    fn sort_recovers_true_order_with_perfect_workers() {
        let items: Vec<String> = (0..7).map(|i| format!("item {i}")).collect();
        // True ranking: item 0 greatest, ... item 6 least.
        let ranks: Vec<usize> = (0..7).collect();
        let mut p = platform(1.0, 1);
        let out = crowd_sort(&items, &ranks, &mut p, 3);
        assert_eq!(out.order, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(out.tasks_asked, 21); // all pairs
        assert_eq!(out.rounds, 7); // round-robin for odd n
    }

    #[test]
    fn sort_is_robust_to_some_errors() {
        let items: Vec<String> = (0..9).map(|i| format!("v{i}")).collect();
        let ranks: Vec<usize> = (0..9).collect();
        let mut p = platform(0.85, 2);
        let out = crowd_sort(&items, &ranks, &mut p, 5);
        // Copeland tolerates a few flipped comparisons: the top item stays
        // near the top.
        let pos0 = out.order.iter().position(|&i| i == 0).unwrap();
        assert!(pos0 <= 2, "true max ranked at {pos0}");
    }

    #[test]
    fn sort_trivial_cases() {
        let mut p = platform(1.0, 3);
        let out = crowd_sort(&[], &[], &mut p, 3);
        assert!(out.order.is_empty());
        let out = crowd_sort(&["x".to_string()], &[0], &mut p, 3);
        assert_eq!(out.order, vec![0]);
        assert_eq!(out.tasks_asked, 0);
    }

    #[test]
    fn group_clusters_matching_keys() {
        let keys: Vec<String> = vec![
            "University of California".into(),
            "Univ. of California".into(),
            "University of Wisconsin".into(),
            "Univ. of Wisconsin".into(),
            "MIT".into(),
        ];
        let truth = |i: usize, j: usize| matches!((i.min(j), i.max(j)), (0, 1) | (2, 3));
        let mut p = platform(1.0, 4);
        let out = crowd_group(&keys, &truth, &mut p, 3, SimilarityFn::default(), 0.3);
        assert_eq!(out.groups.len(), 3);
        assert!(out.groups.contains(&vec![0, 1]));
        assert!(out.groups.contains(&vec![2, 3]));
        assert!(out.groups.contains(&vec![4]));
    }

    #[test]
    fn group_prunes_dissimilar_pairs_machine_side() {
        let keys: Vec<String> =
            vec!["alpha beta".into(), "gamma delta".into(), "epsilon zeta".into()];
        let mut p = platform(1.0, 5);
        let out = crowd_group(&keys, &|_, _| false, &mut p, 3, SimilarityFn::default(), 0.3);
        assert_eq!(out.tasks_asked, 0, "no pair clears the threshold");
        assert_eq!(out.groups.len(), 3);
    }

    #[test]
    fn group_negative_entailment_survives_re_rooting() {
        // Cluster {0, 1, 2} plus singleton 3, all pairs candidates (NoSim
        // gives every pair similarity 0.5, so ordering is lexicographic).
        // Round 1 asks (0,1)=yes and (2,3)=no; round 2 asks (0,2)=yes,
        // which re-roots 2's component. The old root-keyed negative set
        // lost 2≠3 at that union and re-asked (0,3); entailment keeps it:
        // 0=2 ∧ 2≠3 ⇒ 0≠3 and 1≠3, so exactly 3 tasks are asked.
        let keys: Vec<String> = (0..4).map(|i| format!("k{i}")).collect();
        let truth = |i: usize, j: usize| i < 3 && j < 3;
        let mut p = platform(1.0, 7);
        let out = crowd_group(&keys, &truth, &mut p, 3, SimilarityFn::NoSim, 0.3);
        assert_eq!(out.groups, vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(out.tasks_asked, 3, "negative entailment must skip (0,3) and (1,3)");
    }

    #[test]
    fn group_uses_transitivity_to_save_tasks() {
        // Four near-identical keys: 6 candidate pairs, but after a few
        // merges the rest are inferred.
        let keys: Vec<String> = vec![
            "Stanford University".into(),
            "Stanford Universty".into(),
            "Stanford  University".into(),
            "Stanford Univerity".into(),
        ];
        let mut p = platform(1.0, 6);
        let out = crowd_group(&keys, &|_, _| true, &mut p, 3, SimilarityFn::default(), 0.3);
        assert_eq!(out.groups.len(), 1);
        assert!(out.tasks_asked < 6, "transitivity should save pairs, asked {}", out.tasks_asked);
    }
}
