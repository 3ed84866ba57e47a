//! Cross-market HIT deployment (§2.2, Figure 3's last row).
//!
//! Prior systems publish to a single market and inherit its bias; CDB
//! "has the flexibility of cross-market HITs deployment by simultaneously
//! publishing HITs to AMT, ChinaCrowd, CrowdFlower, etc.". The deployer
//! splits a batch of tasks across several (simulated) platforms in
//! proportion to configured shares, runs each slice as one round on its
//! platform, and merges the assignment streams.

use crate::{Assignment, SimulatedPlatform, Task};

/// One market with a traffic share.
#[derive(Debug)]
pub struct MarketSlot {
    /// The platform (already configured with its own worker pool/seed).
    pub platform: SimulatedPlatform,
    /// Relative share of tasks routed to this market (≥ 0; shares are
    /// normalized over the deployer).
    pub share: f64,
}

/// Publishes batches across multiple markets at once.
#[derive(Debug)]
pub struct CrossMarketDeployer {
    slots: Vec<MarketSlot>,
}

impl CrossMarketDeployer {
    /// Create a deployer over one or more markets.
    ///
    /// # Panics
    /// Panics if no slot is given or all shares are zero.
    pub fn new(slots: Vec<MarketSlot>) -> Self {
        assert!(!slots.is_empty(), "need at least one market");
        assert!(slots.iter().any(|s| s.share > 0.0), "need a positive share");
        CrossMarketDeployer { slots }
    }

    /// Number of markets.
    pub fn market_count(&self) -> usize {
        self.slots.len()
    }

    /// Access a slot's platform (e.g. to read its round count).
    pub fn platform(&self, idx: usize) -> &SimulatedPlatform {
        &self.slots[idx].platform
    }

    /// Split `tasks` across the markets proportionally to their shares
    /// (largest-remainder apportionment over contiguous chunks) and ask
    /// each slice as one round with `redundancy` answers per task.
    /// Returns all assignments merged; the round counts as one logical
    /// round (the markets run in parallel).
    pub fn ask_round(&mut self, tasks: &[Task], redundancy: usize) -> Vec<Assignment> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let total_share: f64 = self.slots.iter().map(|s| s.share).sum();
        let n = tasks.len();
        // Largest-remainder apportionment.
        let mut counts: Vec<usize> = Vec::with_capacity(self.slots.len());
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(self.slots.len());
        let mut assigned = 0usize;
        for (i, s) in self.slots.iter().enumerate() {
            let exact = n as f64 * s.share / total_share;
            let floor = exact.floor() as usize;
            counts.push(floor);
            remainders.push((i, exact - exact.floor()));
            assigned += floor;
        }
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(i, _) in remainders.iter().take(n - assigned) {
            counts[i] += 1;
        }
        // Publish contiguous slices.
        let mut out = Vec::new();
        let mut offset = 0usize;
        for (slot, &count) in self.slots.iter_mut().zip(&counts) {
            if count == 0 {
                continue;
            }
            let slice = &tasks[offset..offset + count];
            offset += count;
            out.extend(slot.platform.ask_round(slice, redundancy));
        }
        debug_assert_eq!(offset, n);
        out
    }

    /// The maximum round count over the markets — the logical latency of
    /// the deployment (markets run in parallel).
    pub fn rounds(&self) -> usize {
        self.slots.iter().map(|s| s.platform.rounds()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Answer, Market, Question, TaskId, WorkerPool};

    fn slot(market: Market, share: f64, acc: f64, seed: u64) -> MarketSlot {
        MarketSlot {
            platform: SimulatedPlatform::new(market, WorkerPool::with_accuracies(&[acc; 10]), seed),
            share,
        }
    }

    fn tasks(n: u64) -> Vec<Task> {
        (0..n)
            .map(|i| Task::join_check(Question { id: TaskId(i), difficulty: 1.0 }, true))
            .collect()
    }

    /// Which tasks were answered "yes". Every task's truth is yes, so with
    /// perfect workers on some markets and always-wrong ones on the others
    /// the answers show which market took which task.
    fn answered_yes(out: &[Assignment]) -> Vec<u64> {
        let mut yes: Vec<u64> =
            out.iter().filter(|a| a.answer == Answer::Choice(0)).map(|a| a.task.0).collect();
        yes.dedup();
        yes
    }

    #[test]
    fn splits_tasks_proportionally() {
        let mut d = CrossMarketDeployer::new(vec![
            slot(Market::Amt, 2.0, 1.0, 1),
            slot(Market::CrowdFlower, 1.0, 0.0, 2),
            slot(Market::ChinaCrowd, 1.0, 1.0, 3),
        ]);
        let out = d.ask_round(&tasks(20), 3);
        assert_eq!(out.len(), 60);
        // Contiguous slices of 10 / 5 / 5: tasks 10..15 went to CrowdFlower.
        let want: Vec<u64> = (0..10).chain(15..20).collect();
        assert_eq!(answered_yes(&out), want);
    }

    #[test]
    fn apportionment_covers_every_task() {
        let mut d = CrossMarketDeployer::new(vec![
            slot(Market::Amt, 1.0, 1.0, 1),
            slot(Market::CrowdFlower, 1.0, 0.0, 2),
            slot(Market::ChinaCrowd, 1.0, 1.0, 3),
        ]);
        // 7 tasks across 3 equal shares: 3 + 2 + 2.
        let out = d.ask_round(&tasks(7), 1);
        let answered: Vec<u64> = out.iter().map(|a| a.task.0).collect();
        assert_eq!(answered, (0..7).collect::<Vec<_>>());
        assert_eq!(answered_yes(&out), [0, 1, 2, 5, 6]);
    }

    #[test]
    fn logical_rounds_take_the_max() {
        let mut d = CrossMarketDeployer::new(vec![
            slot(Market::Amt, 1.0, 1.0, 1),
            slot(Market::CrowdFlower, 1.0, 1.0, 2),
        ]);
        d.ask_round(&tasks(4), 1);
        d.ask_round(&tasks(4), 1);
        assert_eq!(d.rounds(), 2);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut d = CrossMarketDeployer::new(vec![slot(Market::Amt, 1.0, 1.0, 1)]);
        assert!(d.ask_round(&[], 5).is_empty());
        assert_eq!(d.rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one market")]
    fn empty_deployer_rejected() {
        CrossMarketDeployer::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive share")]
    fn zero_shares_rejected() {
        CrossMarketDeployer::new(vec![slot(Market::Amt, 0.0, 1.0, 1)]);
    }

    #[test]
    fn zero_share_market_receives_nothing() {
        let mut d = CrossMarketDeployer::new(vec![
            slot(Market::Amt, 1.0, 1.0, 1),
            slot(Market::CrowdFlower, 0.0, 1.0, 2),
        ]);
        let out = d.ask_round(&tasks(5), 1);
        assert_eq!(out.len(), 5);
        assert_eq!((d.platform(0).rounds(), d.platform(1).rounds()), (1, 0));
    }
}
