//! Who knows the truth: a query's answer key, the simulated crowd that
//! answers [`Question`]s from it ([`SimCrowd`], and `cdb-runtime`'s engine
//! through [`join_task`]), and the F1 reference [`true_answers`]. The
//! optimizer only ever publishes questions (see DESIGN.md, "Who reads the
//! truth").

use std::collections::{HashMap, HashSet};

use cdb_crowd::{
    Assignment, CrowdPlatform, Market, Question, SimulatedPlatform, Task, TaskAssigner,
};
use cdb_storage::TupleId;

use crate::candidate::{candidates_where, Candidate};
use crate::model::{Color, EdgeId, PartKind, QueryGraph};

/// Ground-truth edge colors: `truth[e] == true` means the edge is truly
/// BLUE. Every edge of the graph must be present.
pub type EdgeTruth = HashMap<EdgeId, bool>;

/// Ground truth at the data level, independent of any query: which tuple
/// pairs truly join and which tuples truly satisfy which selection
/// literals. Produced by the dataset generator; used to simulate worker
/// answers and to score results.
#[derive(Debug, Clone, Default)]
pub struct QueryTruth {
    /// Unordered truly-matching tuple pairs (stored with the
    /// lexicographically smaller `TupleId` first).
    pub joins: HashSet<(TupleId, TupleId)>,
    /// `(tuple, literal)` pairs where the tuple truly satisfies
    /// `CROWDEQUAL literal`.
    pub selections: HashSet<(TupleId, String)>,
}

impl QueryTruth {
    /// Record a truly-matching pair.
    pub fn add_join(&mut self, a: TupleId, b: TupleId) {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.joins.insert((x, y));
    }

    /// Record that a tuple satisfies a selection literal.
    pub fn add_selection(&mut self, t: TupleId, literal: impl Into<String>) {
        self.selections.insert((t, literal.into()));
    }

    /// True when the pair is a true match.
    pub fn joins_match(&self, a: &TupleId, b: &TupleId) -> bool {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.joins.contains(&(x.clone(), y.clone()))
    }

    /// Project the data-level truth onto a query graph's edges.
    pub fn edge_truth(&self, g: &QueryGraph) -> EdgeTruth {
        let mut out = EdgeTruth::with_capacity(g.edge_count());
        // One probe key per set, refilled in place: a lookup allocates only
        // while a probe string grows.
        let blank = || TupleId::new(String::new(), 0);
        let (mut join, mut selection) = ((blank(), blank()), (blank(), String::new()));
        for i in 0..g.edge_count() {
            let e = EdgeId(i);
            let (u, v) = g.edge_endpoints(e);
            let truth = match (g.node_tuple(u), g.node_tuple(v)) {
                (Some(a), Some(b)) => {
                    let (x, y) = if a <= b { (a, b) } else { (b, a) };
                    refill(&mut join.0, x);
                    refill(&mut join.1, y);
                    self.joins.contains(&join)
                }
                (Some(t), None) | (None, Some(t)) => {
                    let (cu, cv) = (g.node_part(u), g.node_part(v));
                    let lit = match (g.part_kind(cu), g.part_kind(cv)) {
                        (PartKind::Constant { value }, _) | (_, PartKind::Constant { value }) => {
                            value
                        }
                        _ => unreachable!("constant-part edge has a constant endpoint"),
                    };
                    refill(&mut selection.0, t);
                    selection.1.clone_from(lit);
                    self.selections.contains(&selection)
                }
                (None, None) => false,
            };
            // Traditional predicates are Blue by construction; keep them
            // consistent regardless of the crowd truth tables.
            let truth = truth || g.edge_color(e) == Color::Blue;
            out.insert(e, truth);
        }
        out
    }
}

/// Overwrite `probe` with `from`, reusing its string's buffer.
fn refill(probe: &mut TupleId, from: &TupleId) {
    probe.table.clone_from(&from.table);
    probe.row = from.row;
}

/// The candidates that are answers under the ground truth — the reference
/// set for recall/precision: the live candidates whose edges are all true,
/// in enumeration order. The search admits only live, true edges, so it
/// never lists a candidate it would drop.
pub fn true_answers(g: &QueryGraph, truth: &EdgeTruth) -> Vec<Candidate> {
    candidates_where(g, &|e| g.edge_live(e) && truth[&e])
}

/// The join check `q` asks about edge `q.id`, answered from `truth`: the
/// task a simulated crowd hands its workers.
pub fn join_task(truth: &EdgeTruth, q: &Question) -> Task {
    Task::join_check(*q, truth[&EdgeId(q.id.0 as usize)])
}

/// The synchronous simulated crowd bound to one query's answer key: the
/// executor and the baselines ask it questions by edge id.
pub struct SimCrowd<'a> {
    platform: &'a mut SimulatedPlatform,
    truth: &'a EdgeTruth,
}

impl<'a> SimCrowd<'a> {
    /// Answer questions about `truth`'s edges with `platform`'s workers.
    pub fn new(platform: &'a mut SimulatedPlatform, truth: &'a EdgeTruth) -> Self {
        SimCrowd { platform, truth }
    }

    /// Ask, as one round, whether the far ends of two edges sharing a tuple
    /// are one value (ER's dedup question): yes iff both edges truly join.
    pub fn ask_pairs(
        &mut self,
        pairs: &[(Question, EdgeId, EdgeId)],
        redundancy: usize,
    ) -> Vec<Assignment> {
        let tasks: Vec<Task> = pairs
            .iter()
            .map(|&(q, e1, e2)| Task::join_check(q, self.truth[&e1] && self.truth[&e2]))
            .collect();
        self.platform.ask_round(&tasks, redundancy)
    }
}

impl CrowdPlatform for SimCrowd<'_> {
    fn market(&self) -> Market {
        self.platform.market()
    }

    fn rounds(&self) -> usize {
        self.platform.rounds()
    }

    fn ask_round(&mut self, questions: &[Question], redundancy: usize) -> Vec<Assignment> {
        let tasks: Vec<Task> = questions.iter().map(|q| join_task(self.truth, q)).collect();
        self.platform.ask_round(&tasks, redundancy)
    }

    fn ask_round_assigned(
        &mut self,
        questions: &[Question],
        redundancy: usize,
        batch_size: usize,
        assigner: &mut TaskAssigner,
    ) -> Vec<Assignment> {
        let tasks: Vec<Task> = questions.iter().map(|q| join_task(self.truth, q)).collect();
        self.platform.ask_round_assigned(&tasks, redundancy, batch_size, assigner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_crowd::{Answer, TaskId, WorkerPool};

    fn question(id: u64) -> Question {
        Question { id: TaskId(id), difficulty: 1.0 }
    }

    #[test]
    fn a_trait_object_drives_the_crowd_and_answers_from_the_key() {
        let truth: EdgeTruth = [(EdgeId(1), true), (EdgeId(2), false)].into_iter().collect();
        let mut p = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 5]), 1);
        let mut crowd = SimCrowd::new(&mut p, &truth);
        let dynp: &mut dyn CrowdPlatform = &mut crowd;
        assert_eq!(dynp.market(), Market::Amt);
        let asg = dynp.ask_round(&[question(1), question(2)], 3);
        assert_eq!(asg.len(), 6);
        assert_eq!(dynp.rounds(), 1);
        let yes = |t: u64| {
            asg.iter().filter(|a| a.task == TaskId(t)).all(|a| a.answer == Answer::Choice(0))
        };
        assert!(yes(1));
        assert!(!yes(2));
    }

    #[test]
    fn a_pair_is_the_same_value_only_when_both_edges_join() {
        let truth: EdgeTruth =
            [(EdgeId(0), true), (EdgeId(1), true), (EdgeId(2), false)].into_iter().collect();
        let mut p = SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 5]), 1);
        let asg = SimCrowd::new(&mut p, &truth).ask_pairs(
            &[(question(10), EdgeId(0), EdgeId(1)), (question(11), EdgeId(0), EdgeId(2))],
            1,
        );
        let answers: Vec<_> = asg.iter().map(|a| (a.task.0, a.answer.clone())).collect();
        assert_eq!(answers, [(10, Answer::Choice(0)), (11, Answer::Choice(1))]);
    }
}
