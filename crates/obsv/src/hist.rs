//! Fixed-precision, deterministic log-bucketed latency histogram.
//!
//! Profiling wall-clock timings must not disturb the deterministic event
//! streams, but their *summaries* should still be reproducible artifacts:
//! two runs that observe the same multiset of values — in any order, on
//! any number of threads — must serialize to the same bytes. [`Hist`]
//! guarantees that by being integer-only and order-free:
//!
//! * Values are `u64` (the profiler records nanoseconds). Each value
//!   lands in a log-spaced bucket: bucket widths double every octave and
//!   each octave is split into [`SUB`] sub-buckets, so the bucket upper
//!   bound overestimates a contained value by at most `1/SUB` (6.25%)
//!   plus one integer step — the *bucket bound* that percentile queries
//!   inherit.
//! * Recording is a single index increment; [`Hist::merge`] is bucket-wise
//!   addition, hence associative and commutative — shard per thread, merge
//!   in any order, get identical state.
//! * Percentiles ([`Hist::percentile`]) use the nearest-rank rule over
//!   bucket counts and return the matched bucket's upper bound, so the
//!   estimate `e` for a true value `v` satisfies `v <= e <= v + 1 + v/SUB`.
//!   [`Hist::max`] and [`Hist::sum`] are tracked exactly.
//! * [`Hist::prom`] exposes octave-granularity cumulative `_bucket`
//!   series through the existing [`PromText`] writer.

use crate::json::JsonObject;
use crate::prom::PromText;

/// Sub-buckets per octave: bucket upper bounds overestimate a contained
/// value by at most `1/SUB` of its magnitude (plus one integer step).
pub const SUB: u64 = 16;
const SUB_BITS: u32 = 4; // log2(SUB)

/// A mergeable log-bucketed histogram of `u64` values.
///
/// The default state (no recordings) is an empty bucket vector; buckets
/// grow on demand up to the fixed index of the largest recorded value, so
/// two histograms fed the same values always hold identical vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

/// Bucket index of a value: exact below [`SUB`], then log-spaced with
/// `SUB` sub-buckets per octave.
fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = top - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Largest value mapping to bucket `idx` (the bound percentiles report).
fn upper_of(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let shift = (idx / SUB - 1) as u32;
    let sub = idx % SUB + SUB;
    ((sub + 1) << shift) - 1
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index_of(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.max = self.max.max(v);
    }

    /// Bucket-wise addition: associative, commutative, and therefore
    /// order- and thread-count-independent.
    pub fn merge(&mut self, other: &Hist) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(p * count)`-th smallest value. For a true
    /// percentile `v` the returned estimate `e` satisfies
    /// `v <= e <= v + 1 + v / SUB`. Returns the exact max for `p >= 1`
    /// and 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1.0 {
            return self.max;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The max lives in the last non-empty bucket; never report
                // past it (the bucket upper can exceed the true max).
                return upper_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// order — the full-resolution view serializations use.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, c)| **c > 0).map(|(i, c)| (upper_of(i), *c))
    }

    /// Octave-granularity buckets `(upper, count)`: counts coalesced under
    /// power-of-two upper bounds. This is the compact form Prometheus
    /// exposition uses (~64 buckets max instead of ~1000).
    pub fn octave_buckets(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (upper, c) in self.buckets() {
            let oct = if upper <= 1 { upper } else { upper.next_power_of_two() };
            match out.last_mut() {
                Some((u, n)) if *u == oct => *n += c,
                _ => out.push((oct, c)),
            }
        }
        out
    }

    /// Emit this histogram through the existing Prometheus writer as a
    /// `histogram` family (`_bucket`/`_sum`/`_count`), octave-granularity,
    /// with every recorded value scaled by `scale` (e.g. `1e-9` to expose
    /// nanosecond recordings in seconds, per Prometheus convention).
    pub fn prom(&self, p: &mut PromText, name: &str, help: &str, scale: f64) {
        let (uppers, counts): (Vec<f64>, Vec<u64>) =
            self.octave_buckets().into_iter().map(|(u, c)| (u as f64 * scale, c)).unzip();
        p.histogram(name, help, &uppers, &counts, self.sum as f64 * scale);
    }

    /// Compact JSON summary: count, sum, p50/p90/p99/max (scaled by
    /// `scale` into the caller's unit), plus octave buckets.
    pub fn to_json(&self, scale: f64) -> String {
        let mut buckets = crate::json::JsonArray::new();
        for (u, c) in self.octave_buckets() {
            buckets = buckets.raw(&format!("[{},{}]", crate::json::number(u as f64 * scale), c));
        }
        JsonObject::new()
            .u64("count", self.count)
            .f64("sum", self.sum as f64 * scale)
            .f64("p50", self.percentile(0.50) as f64 * scale)
            .f64("p90", self.percentile(0.90) as f64 * scale)
            .f64("p99", self.percentile(0.99) as f64 * scale)
            .f64("max", self.max as f64 * scale)
            .raw("buckets", &buckets.finish())
            .finish()
    }

    /// Canonical byte serialization of the full state. Two histograms fed
    /// the same value multiset — in any order, across any sharding —
    /// produce identical strings; the determinism proptests pin this.
    pub fn encode(&self) -> String {
        let mut s = format!("count={} sum={} max={};", self.count, self.sum, self.max);
        for (i, c) in self.buckets.iter().enumerate() {
            if *c > 0 {
                s.push_str(&format!("{i}:{c},"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(upper_of(v as usize), v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn index_and_upper_are_consistent() {
        for v in [0, 1, 15, 16, 17, 31, 32, 100, 1000, 123_456, u32::MAX as u64, u64::MAX / 2] {
            let idx = index_of(v);
            let upper = upper_of(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            // Relative bound: upper <= v + 1 + v/SUB.
            assert!(
                upper as u128 <= v as u128 + 1 + v as u128 / SUB as u128,
                "v={v} upper={upper}"
            );
            // Bucket ranges are contiguous: the upper of the previous
            // bucket is exactly one below this bucket's lower bound.
            if idx > 0 {
                assert!(upper_of(idx - 1) < v || index_of(upper_of(idx - 1)) == idx - 1);
            }
        }
    }

    #[test]
    fn buckets_partition_the_line() {
        // Every value up to a few octaves maps to exactly one bucket and
        // bucket uppers are strictly increasing.
        let mut prev = None;
        for idx in 0..(6 * SUB as usize) {
            let u = upper_of(idx);
            if let Some(p) = prev {
                assert!(u > p, "upper not increasing at {idx}");
            }
            assert_eq!(index_of(u), idx, "upper of {idx} maps back");
            prev = Some(u);
        }
    }

    #[test]
    fn percentile_of_uniform_range() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        assert!((500..=532).contains(&p50), "p50={p50}");
        let p99 = h.percentile(0.99);
        assert!((990..=1024).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut all = Hist::new();
        for v in [3u64, 99, 64, 12_000, 7, 99, 1_000_000] {
            all.record(v);
        }
        for v in [3u64, 99, 64] {
            a.record(v);
        }
        for v in [12_000u64, 7, 99, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.encode(), all.encode());
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Hist::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.octave_buckets(), vec![]);
    }

    #[test]
    fn prom_exposition_validates_and_is_monotone() {
        let mut h = Hist::new();
        for v in [5u64, 17, 300, 300, 4096, 70_000] {
            h.record(v);
        }
        let mut p = PromText::new();
        h.prom(&mut p, "cdb_phase_seconds", "phase latency", 1e-9);
        let text = p.finish();
        crate::prom::validate_exposition(&text).unwrap();
        assert!(text.contains("le=\"+Inf\""));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("cdb_phase_seconds_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v as u64 >= last, "bucket counts must be cumulative: {line}");
            last = v as u64;
        }
        assert_eq!(last, 6);
    }

    #[test]
    fn json_summary_is_balanced() {
        let mut h = Hist::new();
        h.record_n(250, 10);
        let j = h.to_json(1e-3);
        crate::json::parse(&j).unwrap();
        assert!(j.contains("\"count\":10"));
    }
}
