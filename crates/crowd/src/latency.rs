//! Simulated worker response-time model.
//!
//! Real crowd rounds do not complete in lockstep: each worker takes their
//! own time to pick up and answer a HIT. The runtime advances a *virtual
//! clock* (milliseconds of simulated time) and this model supplies each
//! assignment's response latency: a per-worker persistent speed factor
//! (slow workers stay slow across tasks) times per-assignment log-normal
//! jitter.

use rand::Rng;

use crate::stream::stream_rng;
use crate::WorkerId;

/// Virtual time, in milliseconds since a query started executing.
pub type SimTime = u64;

/// Log-normal response-latency model with persistent per-worker speeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Seed shaping the per-worker persistent speed factors.
    pub seed: u64,
    /// Mean response time of a median worker, in virtual milliseconds.
    pub mean_ms: f64,
    /// Log-normal sigma of the persistent per-worker speed factor.
    pub worker_sigma: f64,
    /// Log-normal sigma of the per-assignment jitter.
    pub jitter_sigma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // About a minute per answer — the order of magnitude the paper's
        // AMT experiments observe for packed HITs (§6.3).
        LatencyModel { seed: 0, mean_ms: 60_000.0, worker_sigma: 0.5, jitter_sigma: 0.35 }
    }
}

impl LatencyModel {
    /// The persistent speed factor of one worker: a pure function of
    /// `(seed, worker)`, so it is stable across tasks, rounds and threads.
    pub fn worker_factor(&self, worker: WorkerId) -> f64 {
        let mut rng = stream_rng(self.seed, &[0xFAC7, u64::from(worker.0)]);
        (self.worker_sigma * std_normal(&mut rng)).exp()
    }

    /// Sample one assignment's response latency for a worker whose
    /// [`worker_factor`](LatencyModel::worker_factor) is `factor`, drawing
    /// the jitter from `rng`. Always at least 1 virtual millisecond.
    pub fn sample(&self, factor: f64, rng: &mut impl Rng) -> SimTime {
        let jitter = (self.jitter_sigma * std_normal(rng)).exp();
        let ms = self.mean_ms * factor * jitter;
        ms.max(1.0) as SimTime
    }
}

/// One standard-normal draw via Box–Muller.
fn std_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn worker_factor_is_stable_and_worker_specific() {
        let m = LatencyModel::default();
        assert_eq!(m.worker_factor(WorkerId(3)), m.worker_factor(WorkerId(3)));
        assert_ne!(m.worker_factor(WorkerId(3)), m.worker_factor(WorkerId(4)));
    }

    #[test]
    fn samples_are_positive_and_centered_near_the_mean() {
        let m = LatencyModel { seed: 9, mean_ms: 1000.0, worker_sigma: 0.0, jitter_sigma: 0.2 };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let factor = m.worker_factor(WorkerId(0));
        let total: u64 = (0..n).map(|_| m.sample(factor, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        // exp(sigma^2/2) bias aside, the mean should land near 1000ms.
        assert!(mean > 800.0 && mean < 1300.0, "mean = {mean}");
    }

    #[test]
    fn slow_workers_stay_slow() {
        let m = LatencyModel { seed: 4, mean_ms: 1000.0, worker_sigma: 1.0, jitter_sigma: 0.0 };
        let (a, b) = (m.worker_factor(WorkerId(0)), m.worker_factor(WorkerId(1)));
        let (slow, fast) = (a.max(b), a.min(b));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..16 {
            assert!(m.sample(slow, &mut rng) > m.sample(fast, &mut rng));
        }
    }
}
