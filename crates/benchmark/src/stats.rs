//! Order statistics the metrics are built from.

/// Samples that must lie beyond a percentile's rank before it is reported.
const TAIL_SUPPORT: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// True when at least [`TAIL_SUPPORT`] of `n` samples lie beyond the
/// `p`-th percentile's rank, so the percentile is not set by a handful of
/// outliers.
fn supported(n: usize, p: f64) -> bool {
    n - rank(n, p) > TAIL_SUPPORT
}

/// Zero-based nearest-rank index of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Nearest-rank `p`-th percentile (`p` in 0..=1), or 0 when the sample is
/// too small to support it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() || !supported(xs.len(), p) {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), p)]
}

/// Completions per second as the median of ten equal-count slices' rates,
/// so that one host stall moves one slice and not the result. `done_s` are
/// completion times in seconds since the phase started; each completion
/// stands for `weight` queries. Fewer than ten completions use one slice
/// per completion.
pub fn slice_median_rate(done_s: &[f64], weight: f64) -> f64 {
    let s = sorted(done_s);
    let slices = s.len().min(10);
    let mut rates = Vec::with_capacity(slices);
    let (mut prev_idx, mut prev_t) = (0usize, 0.0f64);
    for k in 1..=slices {
        let end = s.len() * k / slices;
        let t = s[end - 1];
        rates.push(weight * (end - prev_idx) as f64 / (t - prev_t).max(1e-9));
        (prev_idx, prev_t) = (end, t);
    }
    median(&rates)
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` computes them (exclusive method), which
/// is what the driver's spread check uses. Needs two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// A tiny seeded generator (SplitMix64) for query order and sampling; the
/// workspace's vendored `rand` is avoided so the benchmark's inputs do not
/// change when that stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0); // exactly 10 beyond
        assert_eq!(percentile(&xs[..999], 0.99), 0.0); // 9 beyond: not reported
        assert_eq!(percentile(&xs[..999], 0.9), 900.0); // so p90 is the highest rank reported
        assert!(supported(100, 0.9) && !supported(99, 0.9));
        assert!(supported(20, 0.5) && !supported(19, 0.5));
        assert_eq!(percentile(&xs[..60], 0.5), 30.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // 100 completions at 100/s, then the same with a 5 s stall in slice 4.
        let even: Vec<f64> = (1..=100).map(|i| i as f64 * 0.01).collect();
        let stalled: Vec<f64> = even.iter().map(|&t| if t > 0.35 { t + 5.0 } else { t }).collect();
        assert!((slice_median_rate(&even, 1.0) - 100.0).abs() < 1e-6);
        assert!((slice_median_rate(&stalled, 1.0) - 100.0).abs() < 1e-6);
        let overall = 100.0 / stalled.last().unwrap();
        assert!(overall < 20.0, "the plain rate is dominated by the stall ({overall})");
        // Few completions, each worth several queries (fleet passes).
        assert!((slice_median_rate(&[0.5, 1.0, 1.5], 5.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
    }
}
