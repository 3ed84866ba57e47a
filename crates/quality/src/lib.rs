//! Quality control for CDB (Section 5.3 of the paper).
//!
//! CDB controls quality at two moments:
//!
//! 1. **Truth inference** — when workers answer, estimate each worker's
//!    quality `q_w` with EM and aggregate answers by *Bayesian voting*
//!    (Eq. 2), which is optimal given known worker qualities; fill-in-blank
//!    tasks use the *pivot* answer (highest aggregated string similarity).
//! 2. **Task assignment** — when a worker arrives, assign the k tasks whose
//!    expected entropy reduction is largest (Eq. 3). The paper also ranks
//!    fill tasks by least answer consistency (Eq. 4, [`fill_consistency`])
//!    and collection tasks by the smallest completeness score
//!    `(N - M) / N`, where `N` is a species-richness estimate of the answer
//!    cardinality ([`collect_completeness`], [`chao92_estimate`]). Those
//!    are library functions that no execution path calls: FILL stops early
//!    on an agreeing group of answers and COLLECT draws from a value
//!    universe (DESIGN.md deviation 8).
//!
//! The plain majority-voting strategy used by CrowdDB/Qurk/Deco/CrowdOP is
//! also provided as the comparison baseline.

mod assign;
mod estimate;
mod fill;
mod partial;
mod truth;

pub use assign::{
    collect_completeness, expected_quality_improvement, fill_consistency, select_top_k_tasks,
};
pub use estimate::chao92_estimate;
pub use fill::{aggregated_similarity, pivot_answer};
pub use partial::{decided_choice, early_decision, vote_entropy, PartialDecision};
pub use truth::{
    bayesian_posterior, bayesian_posterior_difficulty, effective_accuracy, em_truth_inference,
    majority_vote, EmConfig, EmResult, TaskAnswers,
};
