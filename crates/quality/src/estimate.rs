//! Cardinality estimation for collection tasks.
//!
//! To score the *completeness* of a COLLECT query, CDB estimates the total
//! number of distinct answers `N` from the stream of contributions
//! (following crowd enumeration queries, Trushkowsky et al. [53]). We use
//! the chao92 species-richness estimator, the standard choice in that
//! line of work. No execution path calls it: COLLECT draws from a value
//! universe (DESIGN.md deviation 8).

/// chao92 estimate of the total number of distinct items, from the
/// multiset of observed contribution counts.
///
/// `counts[i]` is how many times distinct item `i` has been contributed.
/// With `c = 1 - f1/n` the sample coverage (f1 = singletons, n = total
/// contributions) and `d` the number of distinct observed items, the
/// estimate is `d / c + n(1-c)/c * γ²` where `γ²` is the squared
/// coefficient of variation. Falls back to `d` when coverage is zero.
pub fn chao92_estimate(counts: &[usize]) -> f64 {
    let d = counts.len() as f64;
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let f1 = counts.iter().filter(|&&c| c == 1).count() as f64;
    let coverage = 1.0 - f1 / n_f;
    if coverage <= 0.0 {
        // All singletons: no basis to extrapolate; return a pessimistic
        // doubling like the original paper's guidance.
        return 2.0 * d;
    }
    let d_cov = d / coverage;
    // Squared coefficient of variation of the counts.
    let sum_i: f64 = counts.iter().map(|&c| (c * (c.saturating_sub(1))) as f64).sum();
    let gamma2 = ((d_cov * sum_i) / (n_f * (n_f - 1.0).max(1.0)) - 1.0).max(0.0);
    d_cov + n_f * (1.0 - coverage) / coverage * gamma2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contributions_estimates_zero() {
        assert_eq!(chao92_estimate(&[]), 0.0);
    }

    #[test]
    fn fully_saturated_sample_estimates_observed() {
        // Every item seen many times: coverage ~1, estimate ~ d.
        let counts = vec![10; 20];
        let est = chao92_estimate(&counts);
        assert!((est - 20.0).abs() < 0.5, "est = {est}");
    }

    #[test]
    fn many_singletons_extrapolate_upwards() {
        // Half the items are singletons: plenty of unseen mass.
        let mut counts = vec![1; 10];
        counts.extend(vec![3; 10]);
        let est = chao92_estimate(&counts);
        assert!(est > 20.0, "est = {est}");
    }

    #[test]
    fn all_singletons_doubles() {
        assert_eq!(chao92_estimate(&[1, 1, 1, 1]), 8.0);
    }

    #[test]
    fn estimate_is_at_least_observed_distinct() {
        for counts in [vec![2, 2, 1], vec![5, 1, 1, 1], vec![3]] {
            let est = chao92_estimate(&counts);
            assert!(est + 1e-9 >= counts.len() as f64, "est {est} < d {}", counts.len());
        }
    }
}
