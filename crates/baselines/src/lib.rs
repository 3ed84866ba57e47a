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
