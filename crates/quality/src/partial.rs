//! Truth inference over *partial* answer sets.
//!
//! The concurrent runtime collects answers as they arrive instead of
//! waiting for a round barrier, so inference must cope with incomplete
//! redundancy: some answers are still in flight, some never arrive
//! (dropped or abandoned workers), and some arrive after their deadline.
//! The CDAS-style rule here terminates a task early when the votes already
//! in hand cannot be overturned by the votes still outstanding — saving
//! both money (unneeded assignments can be cancelled) and latency (the
//! task closes before slow workers respond).

use crate::truth::plurality;

/// What a partial vote set implies about a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialDecision {
    /// The leading choice can no longer be overtaken: decide now.
    Decided(usize),
    /// The outcome still depends on outstanding answers.
    NeedMore,
    /// All expected answers are in (or lost); decide by majority.
    Exhausted(usize),
}

/// CDAS-style early termination over one single-choice task's tally:
/// `counts[c]` votes for each choice `c`, `received` answers in hand and
/// `redundancy` planned. Decide as soon as the leader's margin exceeds the
/// number of answers still outstanding. A malformed (out-of-range) answer
/// consumed its assignment but carries no signal: it counts toward
/// `received`, never toward any choice.
///
/// Ties and exhausted tallies fall back to [`majority_vote`](crate::majority_vote)'s
/// lowest-index tie-break, so a `Decided`/`Exhausted` verdict always
/// matches what full-redundancy majority voting *could still* return.
pub fn early_decision(counts: &[usize], received: usize, redundancy: usize) -> PartialDecision {
    let leader = plurality(counts);
    let outstanding = redundancy.saturating_sub(received);
    if outstanding == 0 {
        return PartialDecision::Exhausted(leader);
    }
    let runner_up =
        counts.iter().enumerate().filter(|&(i, _)| i != leader).map(|(_, &c)| c).max().unwrap_or(0);
    // Even if every outstanding vote went to the strongest rival, could it
    // beat (or tie-break past) the leader? Rivals with a higher index than
    // the leader must strictly exceed it; lower-index rivals win ties.
    let lead = counts[leader] - runner_up;
    if lead > outstanding {
        PartialDecision::Decided(leader)
    } else {
        PartialDecision::NeedMore
    }
}

/// Shannon entropy (in bits) of the vote distribution `counts` (votes per
/// choice). 0 for unanimous or empty tallies and single-choice tasks, 1
/// bit for a perfectly split binary vote — the "how contested is this
/// task" signal the observability layer attaches to every inference
/// decision.
pub fn vote_entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if counts.len() < 2 || total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

/// Convenience: the decided choice, if any (early or exhausted).
pub fn decided_choice(counts: &[usize], received: usize, redundancy: usize) -> Option<usize> {
    match early_decision(counts, received, redundancy) {
        PartialDecision::Decided(c) | PartialDecision::Exhausted(c) => Some(c),
        PartialDecision::NeedMore => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::majority_vote;

    #[test]
    fn unanimous_majority_terminates_early() {
        // 3 yes votes, redundancy 5: the 2 outstanding votes cannot flip it.
        assert_eq!(early_decision(&[3, 0], 3, 5), PartialDecision::Decided(0));
        assert_eq!(decided_choice(&[3, 0], 3, 5), Some(0));
    }

    #[test]
    fn contested_votes_need_more() {
        // 2-1 with 2 outstanding: the trailing choice can still win.
        assert_eq!(early_decision(&[2, 1], 3, 5), PartialDecision::NeedMore);
        assert_eq!(decided_choice(&[2, 1], 3, 5), None);
        // 3-1 with 1 outstanding: lead 2 > 1 outstanding, decided.
        assert_eq!(early_decision(&[3, 1], 4, 5), PartialDecision::Decided(0));
    }

    #[test]
    fn exact_margin_is_not_enough() {
        // Lead equals outstanding: a sweep by the rival forces a tie, and a
        // lower-index rival wins ties — so it is not decided yet.
        assert_eq!(early_decision(&[0, 2], 2, 4), PartialDecision::NeedMore);
        // Leader 0 with lead == outstanding: a tie breaks toward 0 anyway,
        // but the conservative rule still waits.
        assert_eq!(early_decision(&[2, 0], 2, 4), PartialDecision::NeedMore);
    }

    #[test]
    fn exhausted_set_decides_by_majority() {
        assert_eq!(early_decision(&[1, 2], 3, 3), PartialDecision::Exhausted(1));
        // Short vote sets (lost answers) exhaust too.
        assert_eq!(early_decision(&[0, 1], 1, 1), PartialDecision::Exhausted(1));
        // Empty + zero redundancy: majority's tie-break gives choice 0.
        assert_eq!(early_decision(&[0, 0], 0, 0), PartialDecision::Exhausted(0));
    }

    #[test]
    fn three_way_races_track_the_runner_up() {
        // Counts 3/2/0, redundancy 6 → one outstanding; lead 1 is not > 1.
        assert_eq!(early_decision(&[3, 2, 0], 5, 6), PartialDecision::NeedMore);
        // Counts 4/1/0, redundancy 6 → one outstanding; lead 3 > 1.
        assert_eq!(early_decision(&[4, 1, 0], 5, 6), PartialDecision::Decided(0));
    }

    #[test]
    fn vote_entropy_measures_contestedness() {
        assert_eq!(vote_entropy(&[0, 0]), 0.0);
        assert_eq!(vote_entropy(&[3, 0]), 0.0);
        assert!((vote_entropy(&[1, 1]) - 1.0).abs() < 1e-12);
        assert!((vote_entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // Degenerate choice sets are 0.
        assert_eq!(vote_entropy(&[2]), 0.0);
        assert_eq!(vote_entropy(&[]), 0.0);
        // 3-1 split: between unanimous and even.
        let h = vote_entropy(&[3, 1]);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn early_decision_agrees_with_eventual_majority() {
        // Whenever `Decided(c)` fires, no completion of the outstanding
        // votes can make majority_vote return anything else.
        let redundancy = 5;
        for a in 0..3usize {
            for b in 0..3 {
                for c in 0..3 {
                    let votes = [a.min(1), b.min(1), c.min(1)];
                    let mut counts = [0; 2];
                    votes.iter().for_each(|&v| counts[v] += 1);
                    if let PartialDecision::Decided(ch) =
                        early_decision(&counts, votes.len(), redundancy)
                    {
                        // Adversarial completion: all remaining to the rival.
                        let rival = 1 - ch;
                        let mut full = votes.to_vec();
                        full.extend(std::iter::repeat_n(rival, redundancy - votes.len()));
                        assert_eq!(majority_vote(&full, 2), ch, "votes {votes:?}");
                    }
                }
            }
        }
    }
}
