//! Truth inference: majority voting, Bayesian voting (Eq. 2) and EM.

use std::collections::HashMap;

use cdb_crowd::{TaskId, WorkerId};

/// All answers to one single-choice task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAnswers {
    /// The task.
    pub task: TaskId,
    /// Number of choices ℓ.
    pub num_choices: usize,
    /// `(worker, chosen index)` pairs.
    pub answers: Vec<(WorkerId, usize)>,
    /// Task difficulty in `[0, 1]` (1.0 = the paper's flat model). On an
    /// easy task (difficulty → 0) even a weak worker is usually right, so
    /// the answer carries little information about the worker's latent
    /// quality; inference weights it accordingly.
    pub difficulty: f64,
}

impl TaskAnswers {
    /// A task under the paper's flat error model (difficulty 1.0).
    pub fn flat(task: TaskId, num_choices: usize, answers: Vec<(WorkerId, usize)>) -> Self {
        TaskAnswers { task, num_choices, answers, difficulty: 1.0 }
    }
}

/// Effective correctness probability of a worker with latent quality `q`
/// on a task of the given difficulty — the simulation's generative model
/// (`cdb_crowd`), shared by inference so EM is well-specified.
pub fn effective_accuracy(q: f64, difficulty: f64) -> f64 {
    let k = 0.9 * (1.0 - difficulty.clamp(0.0, 1.0));
    (q + (1.0 - q) * k).clamp(1e-6, 1.0 - 1e-6)
}

/// Majority voting: the choice with the most votes (ties broken toward the
/// lower index, making the result deterministic). This is the quality
/// strategy of CrowdDB / Qurk / Deco / CrowdOP.
pub fn majority_vote(answers: &[usize], num_choices: usize) -> usize {
    assert!(num_choices > 0, "task must have at least one choice");
    let mut counts = vec![0usize; num_choices];
    for &a in answers {
        assert!(a < num_choices, "answer {a} out of range 0..{num_choices}");
        counts[a] += 1;
    }
    plurality(&counts)
}

/// The choice with the most votes in `counts` (votes per choice), ties
/// broken toward the lower index.
pub(crate) fn plurality(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .expect("a task has at least one choice")
}

/// Bayesian voting posterior (Eq. 2): the probability of each choice being
/// the truth given worker qualities. A worker of quality `q` answers the
/// truth with probability `q` and any specific wrong choice with
/// probability `(1 - q) / (ℓ - 1)`.
///
/// The prior over choices is uniform. Computation is done in log space for
/// numerical robustness.
pub fn bayesian_posterior(
    answers: &[(WorkerId, usize)],
    qualities: &HashMap<WorkerId, f64>,
    num_choices: usize,
) -> Vec<f64> {
    bayesian_posterior_difficulty(answers, qualities, num_choices, 1.0)
}

/// [`bayesian_posterior`] under the difficulty-aware error model: worker
/// correctness is [`effective_accuracy`]`(q_w, difficulty)` instead of the
/// raw `q_w`. With difficulty 1.0 this is exactly Eq. 2.
pub fn bayesian_posterior_difficulty(
    answers: &[(WorkerId, usize)],
    qualities: &HashMap<WorkerId, f64>,
    num_choices: usize,
    difficulty: f64,
) -> Vec<f64> {
    assert!(num_choices > 0);
    let mut log_p = vec![0.0f64; num_choices];
    for &(w, a) in answers {
        let q0 = qualities.get(&w).copied().unwrap_or(0.7);
        let q = effective_accuracy(q0, difficulty);
        let wrong = ((1.0 - q) / (num_choices.max(2) as f64 - 1.0)).max(1e-12);
        for (i, lp) in log_p.iter_mut().enumerate() {
            *lp += if i == a { q.ln() } else { wrong.ln() };
        }
    }
    // Normalize via log-sum-exp.
    let max = log_p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut p: Vec<f64> = log_p.iter().map(|lp| (lp - max).exp()).collect();
    let sum: f64 = p.iter().sum();
    for v in &mut p {
        *v /= sum;
    }
    p
}

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Initial worker quality (paper default for new workers: 0.7).
    pub initial_quality: f64,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the max quality change between iterations.
    pub tolerance: f64,
    /// Shrinkage strength: the quality estimate behaves as if the worker
    /// had answered this many extra tasks at `initial_quality`. Stabilizes
    /// workers with few answers (whose raw estimates can dip below 0.5 and
    /// invert their votes) while letting prolific workers' estimates
    /// sharpen.
    pub prior_strength: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig { initial_quality: 0.7, max_iters: 50, tolerance: 1e-4, prior_strength: 6.0 }
    }
}

/// EM inference output.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// Estimated quality per worker.
    pub qualities: HashMap<WorkerId, f64>,
    /// Posterior distribution per task (same order as the input).
    pub posteriors: Vec<Vec<f64>>,
    /// Inferred truth per task: argmax of the posterior.
    pub truths: Vec<usize>,
    /// Iterations actually run.
    pub iterations: usize,
}

/// Estimate worker qualities and task truths jointly with
/// Expectation-Maximization (Dawid-Skene style with a single accuracy
/// parameter per worker, as in the paper).
///
/// * E step: compute each task's posterior over choices by Bayesian voting
///   with the current qualities.
/// * M step: a worker's quality becomes the average posterior probability
///   mass on the choices they picked.
pub fn em_truth_inference(tasks: &[TaskAnswers], cfg: EmConfig) -> EmResult {
    let mut qualities: HashMap<WorkerId, f64> = HashMap::new();
    for t in tasks {
        for &(w, _) in &t.answers {
            qualities.entry(w).or_insert(cfg.initial_quality);
        }
    }

    let mut posteriors: Vec<Vec<f64>> = Vec::new();
    let mut iterations = 0;
    for iter in 0..cfg.max_iters.max(1) {
        iterations = iter + 1;
        // E step: posterior per task under the difficulty-aware model.
        posteriors = tasks
            .iter()
            .map(|t| {
                bayesian_posterior_difficulty(&t.answers, &qualities, t.num_choices, t.difficulty)
            })
            .collect();
        // M step: least-squares estimate of q_w from
        //   E[correct on t] = k_t + q_w (1 − k_t),  k_t = 0.9 (1 − d_t),
        // weighting each task by how informative it is about q (1 − k_t).
        // With all difficulties 1.0 (k = 0) this reduces to the paper's
        // "fraction of posterior mass on the worker's answers".
        let mut acc: HashMap<WorkerId, (f64, f64)> = HashMap::new();
        for (t, post) in tasks.iter().zip(&posteriors) {
            let k = 0.9 * (1.0 - t.difficulty.clamp(0.0, 1.0));
            let info = 1.0 - k;
            for &(w, a) in &t.answers {
                let e = acc.entry(w).or_insert((0.0, 0.0));
                e.0 += (post[a] - k) * info;
                e.1 += info * info;
            }
        }
        let mut max_delta = 0.0f64;
        for (w, (num, den)) in acc {
            // Shrink toward the prior (pseudo-observations) and clamp away
            // from 0/1 so Bayesian voting stays well-defined.
            let lambda = cfg.prior_strength.max(0.0);
            let new_q = ((num + lambda * cfg.initial_quality) / (den + lambda)).clamp(0.05, 0.99);
            let old = qualities.insert(w, new_q).expect("initialized above");
            max_delta = max_delta.max((new_q - old).abs());
        }
        if max_delta < cfg.tolerance {
            break;
        }
    }

    let truths = posteriors
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty posterior")
        })
        .collect();
    EmResult { qualities, posteriors, truths, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wid(i: u32) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn majority_vote_basic() {
        assert_eq!(majority_vote(&[0, 0, 1], 2), 0);
        assert_eq!(majority_vote(&[1, 1, 0], 2), 1);
        assert_eq!(majority_vote(&[], 3), 0); // no votes: lowest index
    }

    #[test]
    fn majority_vote_tie_breaks_low() {
        assert_eq!(majority_vote(&[0, 1], 2), 0);
        assert_eq!(majority_vote(&[2, 1], 3), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn majority_vote_rejects_out_of_range() {
        majority_vote(&[5], 2);
    }

    #[test]
    fn bayesian_posterior_weights_good_workers_more() {
        let mut q = HashMap::new();
        q.insert(wid(1), 0.95); // expert says choice 0
        q.insert(wid(2), 0.55); // two mediocre workers say choice 1
        q.insert(wid(3), 0.55);
        let p = bayesian_posterior(&[(wid(1), 0), (wid(2), 1), (wid(3), 1)], &q, 2);
        assert!(p[0] > p[1], "expert should dominate: {p:?}");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bayesian_posterior_uniform_when_no_answers() {
        let q = HashMap::new();
        let p = bayesian_posterior(&[], &q, 4);
        assert!(p.iter().all(|&v| (v - 0.25).abs() < 1e-12));
    }

    #[test]
    fn bayesian_posterior_unknown_worker_gets_default_quality() {
        let q = HashMap::new();
        let p = bayesian_posterior(&[(wid(9), 0)], &q, 2);
        assert!(p[0] > p[1]); // default quality 0.7 > 0.5
    }

    /// Build a batch of tasks where `good` workers answer the truth and
    /// `bad` workers answer adversarially.
    fn synthetic_tasks(n: usize) -> Vec<TaskAnswers> {
        (0..n)
            .map(|i| {
                let truth = i % 2;
                TaskAnswers::flat(
                    TaskId(i as u64),
                    2,
                    vec![
                        (wid(0), truth),     // always right
                        (wid(1), truth),     // always right
                        (wid(2), 1 - truth), // always wrong
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn em_learns_worker_qualities() {
        let tasks = synthetic_tasks(40);
        let r = em_truth_inference(&tasks, EmConfig::default());
        assert!(r.qualities[&wid(0)] > 0.9, "{:?}", r.qualities);
        assert!(r.qualities[&wid(1)] > 0.9);
        assert!(r.qualities[&wid(2)] < 0.2, "{:?}", r.qualities);
    }

    #[test]
    fn em_recovers_truth_against_majority() {
        // Two good workers beat one adversary; also test that EM flips a
        // task where the adversary + one unreliable vote disagree.
        let tasks = synthetic_tasks(40);
        let r = em_truth_inference(&tasks, EmConfig::default());
        for (i, &t) in r.truths.iter().enumerate() {
            assert_eq!(t, i % 2);
        }
    }

    #[test]
    fn em_converges_and_reports_iterations() {
        let tasks = synthetic_tasks(10);
        let r = em_truth_inference(&tasks, EmConfig::default());
        assert!(r.iterations <= 50);
        assert!(r.iterations >= 2);
    }

    #[test]
    fn em_on_empty_input() {
        let r = em_truth_inference(&[], EmConfig::default());
        assert!(r.truths.is_empty());
        assert!(r.qualities.is_empty());
    }

    #[test]
    fn em_posteriors_are_distributions() {
        let tasks = synthetic_tasks(8);
        let r = em_truth_inference(&tasks, EmConfig::default());
        for p in &r.posteriors {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
