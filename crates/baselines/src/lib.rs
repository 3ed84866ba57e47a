//! The systems CDB is compared against in Section 6.
//!
//! * [`tree`] — the *tree model* shared by all prior crowd databases: pick
//!   a table-level join order, then crowdsource every surviving tuple pair
//!   predicate by predicate. Order selection distinguishes the systems:
//!   `CrowdDB` (rule-based: push selections, joins as written), `Qurk`
//!   (rule-based, no push-down), `Deco` (cost-based greedy) and `OptTree`
//!   (enumerate all orders with oracle colors, take the cheapest — the
//!   tree model's lower bound).
//! * [`er`] — the crowdsourced entity-resolution comparator for joins:
//!   `Trans` (transitivity-based inference, Wang et al. \[57]). The paper's
//!   `ACD` (Wang et al. \[58]) is folded into it; see the module docs.
//! * [`budget`] — the budget baseline of Figures 18/19: best table order,
//!   then highest-probability edge first with depth-first completion.

pub mod budget;
pub mod er;
pub mod tree;

pub use budget::budget_baseline;
pub use er::run_er;
pub use tree::{crowddb_order, deco_order, opt_tree_order, qurk_order, run_tree, TreeStats};

use std::collections::HashMap;

use cdb_core::model::{EdgeId, QueryGraph};
use cdb_core::SimCrowd;
use cdb_crowd::{Answer, Assignment, CrowdPlatform, Question, TaskId};
use cdb_quality::majority_vote;

/// Each predicate's live edges, indexed by predicate.
fn live_edges_per_predicate(g: &QueryGraph) -> Vec<Vec<EdgeId>> {
    let mut per_pred = vec![Vec::new(); g.predicate_count()];
    for e in (0..g.edge_count()).map(EdgeId).filter(|&e| g.edge_live(e)) {
        per_pred[g.edge_predicate(e)].push(e);
    }
    per_pred
}

/// The join check asking the crowd about edge `e`.
fn edge_question(g: &QueryGraph, e: EdgeId) -> Question {
    Question { id: TaskId(e.0 as u64), difficulty: cdb_crowd::join_difficulty(g.edge_weight(e)) }
}

/// Ask `questions` as one crowd round of `redundancy` answers each and
/// return each one's majority-vote verdict, in `questions` order.
fn ask_majority(crowd: &mut SimCrowd, questions: &[Question], redundancy: usize) -> Vec<bool> {
    verdicts(crowd.ask_round(questions, redundancy), questions.iter().map(|q| q.id))
}

/// The majority-vote verdict ("yes" is choice 0) of each task in `ids`
/// over `assignments`, in `ids` order.
fn verdicts(assignments: Vec<Assignment>, ids: impl Iterator<Item = TaskId>) -> Vec<bool> {
    let mut votes: HashMap<TaskId, Vec<usize>> = HashMap::new();
    for a in assignments {
        if let Answer::Choice(c) = a.answer {
            votes.entry(a.task).or_default().push(c);
        }
    }
    ids.map(|id| majority_vote(votes.get(&id).map_or(&[][..], Vec::as_slice), 2) == 0).collect()
}
