//! Worker model: latent accuracy drawn from a Gaussian.

use rand::Rng;

/// Opaque worker identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A simulated worker with a latent accuracy: the probability of answering
/// a task correctly. This matches the paper's §6.2 setup where workers are
/// "generated from the same Gaussian distribution N(0.8, 0.01)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Platform-scoped id.
    pub id: WorkerId,
    /// Latent probability of a correct answer, clamped to `[0.05, 1.0]`.
    pub accuracy: f64,
}

/// A pool of simulated workers.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Build a pool of `n` workers whose accuracies are drawn from
    /// `N(mean, stddev^2)` using the supplied RNG, clamped into
    /// `[0.05, 1.0]` so a worker is never an adversarial oracle.
    pub fn gaussian(n: usize, mean: f64, stddev: f64, rng: &mut impl Rng) -> Self {
        let workers = (0..n)
            .map(|i| {
                // Box-Muller transform: rand 0.8 has no Normal distribution
                // without rand_distr, which is outside the approved set.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let acc = (mean + stddev * z).clamp(0.05, 1.0);
                Worker { id: WorkerId(i as u32), accuracy: acc }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Build a pool with exactly the given accuracies.
    pub fn with_accuracies(accuracies: &[f64]) -> Self {
        let workers = accuracies
            .iter()
            .enumerate()
            .map(|(i, &a)| Worker { id: WorkerId(i as u32), accuracy: a.clamp(0.0, 1.0) })
            .collect();
        WorkerPool { workers }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// All workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Look up one worker.
    pub fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(id.0 as usize)
    }

    /// Sample `k` distinct workers uniformly (for redundancy-k assignment
    /// without requester-side control, i.e. the CrowdFlower model). The
    /// sample is the first `k` workers of `scratch`, which is overwritten:
    /// a caller that keeps the buffer allocates nothing per sample.
    ///
    /// # Panics
    /// Panics if `k > len()`.
    pub fn sample_distinct<'s>(
        &self,
        k: usize,
        rng: &mut impl Rng,
        scratch: &'s mut Vec<Worker>,
    ) -> &'s [Worker] {
        assert!(k <= self.workers.len(), "cannot sample {k} from {}", self.workers.len());
        // Partial Fisher-Yates over a fresh copy of the pool.
        scratch.clear();
        scratch.extend_from_slice(&self.workers);
        for i in 0..k {
            let j = rng.gen_range(i..scratch.len());
            scratch.swap(i, j);
        }
        &scratch[..k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_pool_concentrates_near_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let pool = WorkerPool::gaussian(2000, 0.8, 0.1, &mut rng);
        let mean = pool.workers().iter().map(|w| w.accuracy).sum::<f64>() / pool.len() as f64;
        assert!((mean - 0.8).abs() < 0.02, "mean = {mean}");
        assert!(pool.workers().iter().all(|w| (0.05..=1.0).contains(&w.accuracy)));
    }

    #[test]
    fn gaussian_pool_has_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let pool = WorkerPool::gaussian(500, 0.8, 0.1, &mut rng);
        let var = pool.workers().iter().map(|w| (w.accuracy - 0.8).powi(2)).sum::<f64>() / 500.0;
        assert!(var > 0.001, "variance = {var}");
    }

    #[test]
    fn with_accuracies_clamps() {
        let pool = WorkerPool::with_accuracies(&[1.5, -0.2, 0.7]);
        assert_eq!(pool.worker(WorkerId(0)).unwrap().accuracy, 1.0);
        assert_eq!(pool.worker(WorkerId(1)).unwrap().accuracy, 0.0);
        assert_eq!(pool.worker(WorkerId(2)).unwrap().accuracy, 0.7);
    }

    #[test]
    fn sample_distinct_yields_unique_workers() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = WorkerPool::gaussian(10, 0.8, 0.1, &mut rng);
        let sample = pool.sample_distinct(5, &mut rng, &mut Vec::new()).to_vec();
        let mut ids: Vec<u32> = sample.iter().map(|w| w.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_pool_panics() {
        let pool = WorkerPool::with_accuracies(&[0.8]);
        let mut rng = StdRng::seed_from_u64(1);
        pool.sample_distinct(2, &mut rng, &mut Vec::new());
    }

    #[test]
    fn empty_pool() {
        let pool = WorkerPool::with_accuracies(&[]);
        assert!(pool.is_empty());
    }
}
