//! Worker history (§2.1 MetaData: "We maintain worker's quality in the
//! history and the current task").
//!
//! Estimated worker qualities survive across queries: when the same
//! worker returns for a later query, truth inference starts from their
//! historical quality instead of the cold-start default, and requesters
//! can ban workers whose history is poor.

use std::collections::HashMap;

use crate::WorkerId;

/// One worker's running record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerRecord {
    /// Smoothed quality estimate in `[0, 1]`.
    pub quality: f64,
    /// Total answers contributed across all queries.
    pub answers: usize,
    /// Number of queries the worker participated in.
    pub queries: usize,
}

/// A persistent store of worker-quality history.
#[derive(Debug, Clone, Default)]
pub struct WorkerHistory {
    records: HashMap<WorkerId, WorkerRecord>,
    /// Cold-start quality for unseen workers (paper default: 0.7).
    default_quality: f64,
}

impl WorkerHistory {
    /// Empty history with the paper's 0.7 cold-start prior.
    pub fn new() -> Self {
        WorkerHistory { records: HashMap::new(), default_quality: 0.7 }
    }

    /// Number of workers on record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no worker has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Quality prior for a worker: their history, or the cold-start
    /// default.
    pub fn quality(&self, w: WorkerId) -> f64 {
        self.records.get(&w).map(|r| r.quality).unwrap_or(self.default_quality)
    }

    /// The full record, if any.
    pub fn record(&self, w: WorkerId) -> Option<&WorkerRecord> {
        self.records.get(&w)
    }

    /// Fold one query's estimated qualities into the history. The running
    /// quality is an answer-count-weighted average of the old estimate and
    /// the new one, so prolific workers' records are stable while new
    /// workers converge quickly.
    pub fn update(
        &mut self,
        estimates: &HashMap<WorkerId, f64>,
        answers_per_worker: &HashMap<WorkerId, usize>,
    ) {
        for (&w, &q) in estimates {
            let new_answers = answers_per_worker.get(&w).copied().unwrap_or(1).max(1);
            let entry = self.records.entry(w).or_insert(WorkerRecord {
                quality: self.default_quality,
                answers: 0,
                queries: 0,
            });
            let total = entry.answers + new_answers;
            entry.quality =
                (entry.quality * entry.answers as f64 + q * new_answers as f64) / total as f64;
            entry.answers = total;
            entry.queries += 1;
        }
    }

    /// Seed map for truth inference: every known worker's prior.
    pub fn priors(&self) -> HashMap<WorkerId, f64> {
        self.records.iter().map(|(&w, r)| (w, r.quality)).collect()
    }

    /// Workers whose historical quality is below `threshold` — candidates
    /// for exclusion from future assignment.
    pub fn blocklist(&self, threshold: f64) -> Vec<WorkerId> {
        let mut out: Vec<WorkerId> =
            self.records.iter().filter(|(_, r)| r.quality < threshold).map(|(&w, _)| w).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wid(i: u32) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn cold_start_uses_default() {
        let h = WorkerHistory::new();
        assert_eq!(h.quality(wid(1)), 0.7);
        assert!(h.is_empty());
    }

    #[test]
    fn update_folds_estimates() {
        let mut h = WorkerHistory::new();
        let mut est = HashMap::new();
        est.insert(wid(1), 0.9);
        let mut cnt = HashMap::new();
        cnt.insert(wid(1), 10);
        h.update(&est, &cnt);
        assert_eq!(h.quality(wid(1)), 0.9);
        assert_eq!(h.record(wid(1)).unwrap().answers, 10);
        assert_eq!(h.record(wid(1)).unwrap().queries, 1);
    }

    #[test]
    fn weighted_average_across_queries() {
        let mut h = WorkerHistory::new();
        let mut est = HashMap::new();
        est.insert(wid(1), 1.0);
        let mut cnt = HashMap::new();
        cnt.insert(wid(1), 10);
        h.update(&est, &cnt);
        est.insert(wid(1), 0.5);
        cnt.insert(wid(1), 10);
        h.update(&est, &cnt);
        assert!((h.quality(wid(1)) - 0.75).abs() < 1e-12);
        assert_eq!(h.record(wid(1)).unwrap().queries, 2);
    }

    #[test]
    fn prolific_workers_are_stable() {
        let mut h = WorkerHistory::new();
        let mut est = HashMap::new();
        est.insert(wid(1), 0.9);
        let mut cnt = HashMap::new();
        cnt.insert(wid(1), 1000);
        h.update(&est, &cnt);
        // One noisy query barely moves the estimate.
        est.insert(wid(1), 0.2);
        cnt.insert(wid(1), 5);
        h.update(&est, &cnt);
        assert!(h.quality(wid(1)) > 0.88);
    }

    #[test]
    fn blocklist_flags_bad_workers() {
        let mut h = WorkerHistory::new();
        let mut est = HashMap::new();
        est.insert(wid(1), 0.95);
        est.insert(wid(2), 0.4);
        let mut cnt = HashMap::new();
        cnt.insert(wid(1), 5);
        cnt.insert(wid(2), 5);
        h.update(&est, &cnt);
        assert_eq!(h.blocklist(0.6), vec![wid(2)]);
        assert!(h.blocklist(0.1).is_empty());
    }

    #[test]
    fn priors_expose_all_records() {
        let mut h = WorkerHistory::new();
        let mut est = HashMap::new();
        est.insert(wid(3), 0.8);
        h.update(&est, &HashMap::new());
        let p = h.priors();
        assert_eq!(p.len(), 1);
        assert!((p[&wid(3)] - 0.8).abs() < 1e-12);
        assert_eq!(h.quality(wid(9)), 0.7);
    }
}
