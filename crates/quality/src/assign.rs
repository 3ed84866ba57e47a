//! Task assignment (§5.3.2): give the arriving worker the tasks whose
//! quality improves the most.

use cdb_similarity::{SimilarityFn, SimilarityMeasure};

use crate::estimate::chao92_estimate;

/// Shannon entropy of a distribution (natural log; 0·log0 = 0).
fn entropy(p: &[f64]) -> f64 {
    -p.iter().filter(|&&v| v > 0.0).map(|&v| v * v.ln()).sum::<f64>()
}

/// Expected quality improvement `I(t)` (Eq. 3) if worker of quality `q_w`
/// answers a task whose current posterior over ℓ choices is `p`.
///
/// For each choice `i` the worker answers it with probability
/// `p_i·q_w + (1 − p_i)·(1 − q_w)/(ℓ − 1)`; the posterior is updated by
/// Bayes' rule and the improvement is the expected entropy decrease.
pub fn expected_quality_improvement(p: &[f64], q_w: f64) -> f64 {
    let l = p.len();
    assert!(l >= 2, "choice task needs at least 2 choices");
    let q = q_w.clamp(1e-6, 1.0 - 1e-6);
    let wrong = (1.0 - q) / (l as f64 - 1.0);
    let h0 = entropy(p);
    let mut expected_h = 0.0;
    for i in 0..l {
        // Probability the worker picks choice i.
        let delta = p[i] * q + (1.0 - p[i]) * wrong;
        if delta <= 0.0 {
            continue;
        }
        // Posterior after observing answer i.
        let p_new: Vec<f64> = p
            .iter()
            .enumerate()
            .map(|(j, &pj)| if j == i { pj * q / delta } else { pj * wrong / delta })
            .collect();
        expected_h += delta * entropy(&p_new);
    }
    h0 - expected_h
}

/// Select the indices of the top-`k` tasks by expected quality improvement
/// for a worker of quality `q_w`. `posteriors[i]` is the current choice
/// distribution of task `i`. Ties break toward lower index.
pub fn select_top_k_tasks(posteriors: &[Vec<f64>], q_w: f64, k: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = posteriors
        .iter()
        .enumerate()
        .map(|(i, p)| (i, expected_quality_improvement(p, q_w)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

/// Consistency `C(t)` of a fill-in-blank task (Eq. 4): the mean pairwise
/// similarity of the answers collected so far. Tasks with *low* consistency
/// should be assigned next. Returns 0 for fewer than two answers (fully
/// unknown — most in need of answers). No execution path calls it: FILL
/// stops early on an agreeing group instead (DESIGN.md deviation 8).
pub fn fill_consistency(answers: &[String], f: SimilarityFn) -> f64 {
    let n = answers.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            sum += f.similarity(&answers[i], &answers[j]);
        }
    }
    sum / (n * (n - 1) / 2) as f64
}

/// Completeness score `(N − M) / N` of a collection task (§5.3.2), where
/// `M` is the number of distinct tuples collected and `N` a chao92 estimate
/// of the total cardinality. Collection tasks with the *highest* score
/// (farthest from complete) are assigned first. `counts[i]` is the number
/// of contributions of distinct item `i`. No execution path calls it:
/// COLLECT draws from a value universe (DESIGN.md deviation 8).
pub fn collect_completeness(counts: &[usize]) -> f64 {
    let m = counts.len() as f64;
    let n = chao92_estimate(counts);
    if n <= 0.0 {
        return 1.0; // nothing collected yet: maximally incomplete
    }
    ((n - m) / n).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uncertain_tasks_improve_more_than_settled_ones() {
        let uncertain = vec![0.5, 0.5];
        let settled = vec![0.99, 0.01];
        let iu = expected_quality_improvement(&uncertain, 0.8);
        let is = expected_quality_improvement(&settled, 0.8);
        assert!(iu > is, "I(uncertain)={iu} should exceed I(settled)={is}");
    }

    #[test]
    fn better_workers_improve_more() {
        let p = vec![0.5, 0.5];
        let i9 = expected_quality_improvement(&p, 0.9);
        let i6 = expected_quality_improvement(&p, 0.6);
        assert!(i9 > i6);
    }

    #[test]
    fn random_worker_gives_no_improvement_on_binary() {
        // q = 0.5 on 2 choices carries no information.
        let p = vec![0.7, 0.3];
        let i = expected_quality_improvement(&p, 0.5);
        assert!(i.abs() < 1e-9, "I = {i}");
    }

    #[test]
    fn top_k_selects_most_uncertain() {
        let posts = vec![vec![0.95, 0.05], vec![0.5, 0.5], vec![0.8, 0.2]];
        assert_eq!(select_top_k_tasks(&posts, 0.8, 2), vec![1, 2]);
        assert_eq!(select_top_k_tasks(&posts, 0.8, 5), vec![1, 2, 0]);
    }

    #[test]
    fn fill_consistency_behaviour() {
        let f = SimilarityFn::QGramJaccard { q: 2 };
        let same = vec!["MIT".to_string(), "MIT".to_string()];
        let diff = vec!["MIT".to_string(), "Stanford University".to_string()];
        assert!(fill_consistency(&same, f) > fill_consistency(&diff, f));
        assert_eq!(fill_consistency(&[], f), 0.0);
        assert_eq!(fill_consistency(&["x".to_string()], f), 0.0);
    }

    #[test]
    fn completeness_score_drops_as_coverage_saturates() {
        let early = vec![1, 1, 1]; // all singletons, far from complete
        let late = vec![8, 9, 10, 7]; // heavily resampled
        assert!(collect_completeness(&early) > collect_completeness(&late));
        assert_eq!(collect_completeness(&[]), 1.0);
    }

    proptest! {
        #[test]
        fn improvement_is_nonnegative_for_informative_workers(
            p0 in 0.01f64..0.99,
            q in 0.5f64..1.0,
        ) {
            let p = vec![p0, 1.0 - p0];
            let i = expected_quality_improvement(&p, q);
            prop_assert!(i >= -1e-9, "I = {i}");
        }

        #[test]
        fn completeness_in_unit_interval(counts in prop::collection::vec(1usize..10, 0..30)) {
            let c = collect_completeness(&counts);
            prop_assert!((0.0..=1.0).contains(&c));
        }

        #[test]
        fn consistency_in_unit_interval(
            answers in prop::collection::vec("[a-c]{1,6}", 0..6),
        ) {
            let c = fill_consistency(&answers, SimilarityFn::QGramJaccard { q: 2 });
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }
}
