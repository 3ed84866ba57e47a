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

use cdb_core::executor::EdgeTruth;
use cdb_core::model::{EdgeId, QueryGraph};
use cdb_crowd::{Answer, SimulatedPlatform, Task, TaskId};
use cdb_quality::majority_vote;

/// The join-check task asking the crowd about edge `e`.
fn edge_task(g: &QueryGraph, truth: &EdgeTruth, e: EdgeId) -> Task {
    Task::join_check(TaskId(e.0 as u64), truth[&e])
        .with_difficulty(cdb_crowd::join_difficulty(g.edge_weight(e)))
}

/// Ask `tasks` as one crowd round of `redundancy` answers each and return
/// each task's majority-vote verdict ("yes" is choice 0), in `tasks` order.
fn ask_majority(platform: &mut SimulatedPlatform, tasks: &[Task], redundancy: usize) -> Vec<bool> {
    let mut votes: HashMap<TaskId, Vec<usize>> = HashMap::new();
    for a in platform.ask_round(tasks, redundancy) {
        if let Answer::Choice(c) = a.answer {
            votes.entry(a.task).or_default().push(c);
        }
    }
    tasks
        .iter()
        .map(|t| majority_vote(votes.get(&t.id).map_or(&[][..], Vec::as_slice), 2) == 0)
        .collect()
}
