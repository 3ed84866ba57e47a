//! Boundary inputs for truth inference: empty vote sets, single-worker
//! unanimity, out-of-range votes, and degenerate configurations. These
//! are the shapes the concurrent runtime actually produces at the edges —
//! lost answers, one-worker markets, malformed crowd responses.

use std::collections::HashMap;

use cdb_crowd::{TaskId, WorkerId};
use cdb_quality::{
    bayesian_posterior, bayesian_posterior_difficulty, decided_choice, early_decision,
    effective_accuracy, em_truth_inference, majority_vote, vote_entropy, EmConfig, PartialDecision,
    TaskAnswers,
};

// --- empty vote sets -------------------------------------------------------

/// No votes yet, answers outstanding: inference must wait, not decide.
#[test]
fn empty_votes_with_outstanding_answers_need_more() {
    assert_eq!(early_decision(&[0, 0], 0, 3), PartialDecision::NeedMore);
    assert_eq!(decided_choice(&[0, 0], 0, 3), None);
}

/// No votes and none expected (redundancy 0, or every answer lost): the
/// task exhausts to majority's deterministic tie-break, choice 0.
#[test]
fn empty_votes_with_zero_redundancy_exhaust_to_tiebreak() {
    assert_eq!(early_decision(&[0, 0], 0, 0), PartialDecision::Exhausted(0));
    assert_eq!(early_decision(&[0; 5], 0, 0), PartialDecision::Exhausted(0));
    assert_eq!(majority_vote(&[], 3), 0);
}

#[test]
fn empty_votes_have_zero_entropy() {
    assert_eq!(vote_entropy(&[0, 0]), 0.0);
    assert_eq!(vote_entropy(&[0]), 0.0);
}

#[test]
fn empty_answers_give_uniform_posterior() {
    let p = bayesian_posterior(&[], &HashMap::new(), 3);
    for v in &p {
        assert!((v - 1.0 / 3.0).abs() < 1e-12);
    }
    // Degenerate single-choice task: the posterior is the point mass.
    let p = bayesian_posterior(&[], &HashMap::new(), 1);
    assert_eq!(p, vec![1.0]);
}

// --- single-worker unanimity ----------------------------------------------

/// One planned assignment, one answer: exhausted, and the single vote is
/// unanimously the decision — for either choice.
#[test]
fn single_worker_unanimity_decides_at_redundancy_one() {
    assert_eq!(early_decision(&[1, 0], 1, 1), PartialDecision::Exhausted(0));
    assert_eq!(early_decision(&[0, 1], 1, 1), PartialDecision::Exhausted(1));
    assert_eq!(decided_choice(&[0, 1], 1, 1), Some(1));
}

/// The same single vote with more redundancy planned is NOT enough: one
/// outstanding answer can force a tie, which breaks toward the rival.
#[test]
fn single_vote_with_outstanding_answers_is_not_decided() {
    assert_eq!(early_decision(&[0, 1], 1, 2), PartialDecision::NeedMore);
}

/// Unanimity is zero-entropy however many votes deep.
#[test]
fn unanimous_votes_have_zero_entropy() {
    assert_eq!(vote_entropy(&[0, 1]), 0.0);
    assert_eq!(vote_entropy(&[0, 4]), 0.0);
}

/// EM on a single task answered by a single worker: the worker's answer
/// is the inferred truth, qualities stay near the prior (one answer is
/// not evidence against it), and iteration count is reported.
#[test]
fn em_single_task_single_worker() {
    let tasks = vec![TaskAnswers::flat(TaskId(0), 2, vec![(WorkerId(7), 1)])];
    let r = em_truth_inference(&tasks, EmConfig::default());
    assert_eq!(r.truths, vec![1]);
    assert!(r.iterations >= 1);
    let q = r.qualities[&WorkerId(7)];
    assert!((0.5..=0.99).contains(&q), "single answer should not crater quality: {q}");
}

// --- out-of-range votes ----------------------------------------------------

/// A malformed vote consumes its assignment (it is `received`) but counts
/// toward no choice; an all-out-of-range vote set exhausts to the deterministic tie-break
/// instead of panicking.
#[test]
fn all_out_of_range_votes_exhaust_to_tiebreak() {
    assert_eq!(early_decision(&[0, 0], 2, 2), PartialDecision::Exhausted(0));
    assert_eq!(decided_choice(&[0, 0], 3, 3), Some(0));
}

/// Out-of-range votes never push a task over the early-decision line —
/// with answers still outstanding they are dead weight, not a lead.
#[test]
fn out_of_range_votes_do_not_decide_early() {
    assert_eq!(early_decision(&[0, 0], 2, 5), PartialDecision::NeedMore);
    // One valid leading vote + garbage is still only a lead of 1 with 2
    // outstanding.
    assert_eq!(early_decision(&[1, 0], 3, 5), PartialDecision::NeedMore);
    // But a valid unassailable lead decides even with garbage mixed in:
    // lead 3, outstanding 2.
    assert_eq!(early_decision(&[3, 0], 4, 6), PartialDecision::Decided(0));
}

/// `majority_vote` itself keeps its strict contract: out-of-range input
/// is a caller bug and panics. (`early_decision`'s tally counts only
/// in-range votes.)
#[test]
#[should_panic(expected = "out of range")]
fn majority_vote_still_rejects_out_of_range() {
    majority_vote(&[2], 2);
}

// --- degenerate model parameters ------------------------------------------

/// `effective_accuracy` clamps difficulty into [0, 1] and its result away
/// from the 0/1 poles so log-space inference never sees ±inf.
#[test]
fn effective_accuracy_boundaries() {
    for q in [0.0, 0.5, 1.0] {
        for d in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let e = effective_accuracy(q, d);
            assert!((1e-6..=1.0 - 1e-6).contains(&e), "q={q} d={d} -> {e}");
        }
    }
    // Difficulty 1.0 is the identity on interior qualities.
    assert!((effective_accuracy(0.8, 1.0) - 0.8).abs() < 1e-12);
    // Difficulty 0 makes even a hopeless worker mostly right (k = 0.9).
    assert!(effective_accuracy(0.0, 0.0) > 0.85);
}

/// On a zero-difficulty (easy) task even weak workers are mostly right,
/// so the same vote is stronger evidence than on a hard task.
#[test]
fn easy_tasks_sharpen_the_posterior() {
    let mut q = HashMap::new();
    q.insert(WorkerId(1), 0.9);
    let votes = [(WorkerId(1), 0)];
    let hard = bayesian_posterior_difficulty(&votes, &q, 2, 1.0);
    let easy = bayesian_posterior_difficulty(&votes, &q, 2, 0.0);
    assert!(easy[0] > hard[0], "easy {easy:?} vs hard {hard:?}");
    assert!(hard[0] > 0.5, "an answer is still evidence on a hard task");
}

/// EM with `max_iters: 0` still runs one E step, so posteriors exist.
#[test]
fn em_with_zero_max_iters_still_infers() {
    let tasks = vec![TaskAnswers::flat(TaskId(0), 2, vec![(WorkerId(1), 0), (WorkerId(2), 0)])];
    let cfg = EmConfig { max_iters: 0, ..EmConfig::default() };
    let r = em_truth_inference(&tasks, cfg);
    assert_eq!(r.iterations, 1);
    assert_eq!(r.truths, vec![0]);
    assert_eq!(r.posteriors.len(), 1);
}
