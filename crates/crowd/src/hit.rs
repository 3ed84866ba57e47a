//! HIT packing: group tasks into human-intelligence tasks.
//!
//! The paper's real experiments "pack 10 tasks in each HIT with \$0.1 as its
//! price" (§6.3). Monetary cost is `#HITs * price * redundancy`, priced one
//! way, in integer cents: [`pack_shared`] packs a round's tasks (from one or
//! several queries) into HITs, [`attribute_shared_cents`] splits their cost
//! back to the queries, and [`HitConfig::hits_cost_cents`] is the platform
//! spend the split sums to.

/// HIT packing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitConfig {
    /// Tasks per HIT (paper: 10).
    pub tasks_per_hit: usize,
    /// Price per HIT in dollars (paper: 0.1).
    pub price_per_hit: f64,
}

impl Default for HitConfig {
    fn default() -> Self {
        HitConfig { tasks_per_hit: 10, price_per_hit: 0.1 }
    }
}

impl HitConfig {
    /// Price per HIT in integer cents.
    ///
    /// This is the single f64→cents boundary: `price_per_hit` is dollars
    /// (paper notation), everything downstream (obsv counters, per-query
    /// attribution) is integer cents. Round-to-nearest happens exactly once,
    /// here — all splits after this point are integer arithmetic, so a
    /// partial shared HIT can neither drop nor double-count a cent.
    pub fn price_cents(&self) -> u64 {
        (self.price_per_hit * 100.0).round() as u64
    }

    /// Integer-cent cost of `hits` HITs at `redundancy` assignments each.
    pub fn hits_cost_cents(&self, hits: usize, redundancy: usize) -> u64 {
        hits as u64 * self.price_cents() * redundancy as u64
    }
}

/// A shared HIT: one published HIT whose slots are filled by tasks from
/// several queries. `slots` records, in packing order, how many of the
/// HIT's task slots each query occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedHit {
    /// Position in the publish order.
    pub index: usize,
    /// `(query id, tasks contributed)` pairs, in packing order.
    pub slots: Vec<(u64, usize)>,
}

impl SharedHit {
    /// Total task slots occupied in this HIT.
    pub fn task_count(&self) -> usize {
        self.slots.iter().map(|(_, n)| n).sum()
    }
}

/// Pack per-query task contributions into shared HITs.
///
/// Contributions are concatenated in the given order (callers pass them in
/// query-id order for determinism) and chunked into HITs of
/// `cfg.tasks_per_hit`; a HIT boundary may fall inside a query's batch, and
/// one HIT may carry tasks from several queries. The last HIT may be short.
pub fn pack_shared(contributions: &[(u64, usize)], cfg: HitConfig) -> Vec<SharedHit> {
    assert!(cfg.tasks_per_hit > 0, "tasks_per_hit must be positive");
    let mut hits: Vec<SharedHit> = Vec::new();
    let mut open: Vec<(u64, usize)> = Vec::new();
    let mut room = cfg.tasks_per_hit;
    for &(query, mut remaining) in contributions {
        while remaining > 0 {
            let take = remaining.min(room);
            open.push((query, take));
            remaining -= take;
            room -= take;
            if room == 0 {
                hits.push(SharedHit { index: hits.len(), slots: std::mem::take(&mut open) });
                room = cfg.tasks_per_hit;
            }
        }
    }
    if !open.is_empty() {
        hits.push(SharedHit { index: hits.len(), slots: open });
    }
    hits
}

/// Attribute the integer-cent cost of a round's shared HITs back to the
/// contributing queries.
///
/// Each HIT costs `price_cents() * redundancy` regardless of how full it
/// is; within a HIT the cost is split across its slot queries proportionally
/// to tasks contributed, using largest-remainder rounding (ties broken by
/// slot order, i.e. query-id order for sorted input). Per-HIT shares are
/// integers that sum exactly to the HIT's cost, so the returned per-query
/// totals sum exactly to the platform spend `hits.len() * price * redundancy`
/// — the conservation property `cdb-obsv` checks.
///
/// Returns `(query id, attributed cents)` pairs aggregated per query, in
/// first-contribution order.
pub fn attribute_shared_cents(
    hits: &[SharedHit],
    cfg: HitConfig,
    redundancy: usize,
) -> Vec<(u64, u64)> {
    let hit_cents = cfg.price_cents() * redundancy as u64;
    let mut order: Vec<u64> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    for hit in hits {
        let occupied = hit.task_count() as u64;
        debug_assert!(occupied > 0, "packed HITs are never empty");
        // Integer floor shares first, then hand out the remainder cents to
        // the slots with the largest fractional parts (largest remainder).
        let mut shares: Vec<(usize, u64, u64)> = hit
            .slots
            .iter()
            .enumerate()
            .map(|(slot, &(_, n))| {
                let raw = hit_cents * n as u64;
                (slot, raw / occupied, raw % occupied)
            })
            .collect();
        let leftover = hit_cents - shares.iter().map(|&(_, floor, _)| floor).sum::<u64>();
        // Stable sort: ties in remainder keep slot (packing/query-id) order.
        shares.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        for (i, share) in shares.iter_mut().enumerate() {
            if (i as u64) < leftover {
                share.1 += 1;
            }
        }
        shares.sort_by_key(|&(slot, _, _)| slot);
        for (slot, cents, _) in shares {
            let query = hit.slots[slot].0;
            match order.iter().position(|&q| q == query) {
                Some(i) => totals[i] += cents,
                None => {
                    order.push(query);
                    totals.push(cents);
                }
            }
        }
    }
    order.into_iter().zip(totals).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "tasks_per_hit")]
    fn zero_sized_hits_rejected() {
        pack_shared(&[(0, 3)], HitConfig { tasks_per_hit: 0, price_per_hit: 0.1 });
    }

    #[test]
    fn price_cents_rounds_once_at_the_boundary() {
        assert_eq!(HitConfig::default().price_cents(), 10);
        // 0.1 is not exactly representable in f64; round-to-nearest at the
        // boundary still yields 10 cents, and never 9 or 11.
        let cfg = HitConfig { tasks_per_hit: 10, price_per_hit: 0.1f64 };
        assert_eq!(cfg.hits_cost_cents(3, 5), 150);
    }

    #[test]
    fn shared_packing_crosses_query_boundaries() {
        let cfg = HitConfig::default();
        // 7 + 6 + 10 tasks -> 23 slots -> 3 HITs; HIT 0 carries q0+q1,
        // HIT 1 carries q1+q2, HIT 2 is a 3-slot partial of q2.
        let hits = pack_shared(&[(0, 7), (1, 6), (2, 10)], cfg);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].slots, vec![(0, 7), (1, 3)]);
        assert_eq!(hits[1].slots, vec![(1, 3), (2, 7)]);
        assert_eq!(hits[2].slots, vec![(2, 3)]);
        assert_eq!(hits.iter().map(SharedHit::task_count).sum::<usize>(), 23);
    }

    #[test]
    fn shared_packing_skips_empty_contributions() {
        let hits = pack_shared(&[(0, 0), (1, 4), (2, 0)], HitConfig::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].slots, vec![(1, 4)]);
        assert!(pack_shared(&[], HitConfig::default()).is_empty());
    }

    #[test]
    fn attribution_conserves_cents_on_partial_shared_hits() {
        let cfg = HitConfig::default();
        // One HIT shared 7/3: 10¢ splits 7¢/3¢ exactly.
        let hits = pack_shared(&[(0, 7), (1, 3)], cfg);
        assert_eq!(attribute_shared_cents(&hits, cfg, 1), vec![(0, 7), (1, 3)]);
        // Thirds of a 10¢ HIT don't divide evenly: floor shares are 3/3/3
        // and the leftover cent goes to the first slot (largest remainder
        // tie broken by packing order).
        let hits = pack_shared(&[(0, 1), (1, 1), (2, 1)], cfg);
        let split = attribute_shared_cents(&hits, cfg, 1);
        assert_eq!(split.iter().map(|&(_, c)| c).sum::<u64>(), 10);
        assert_eq!(split, vec![(0, 4), (1, 3), (2, 3)]);
    }

    #[test]
    fn attribution_aggregates_across_hits_per_query() {
        let cfg = HitConfig::default();
        let contribs = [(7u64, 12usize), (9, 8), (11, 5)];
        let hits = pack_shared(&contribs, cfg);
        let split = attribute_shared_cents(&hits, cfg, 3);
        let platform = cfg.hits_cost_cents(hits.len(), 3);
        assert_eq!(split.iter().map(|&(_, c)| c).sum::<u64>(), platform);
        assert_eq!(split.len(), 3, "one entry per contributing query");
        assert_eq!(split[0].0, 7, "first-contribution order preserved");
    }

    mod conservation {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The bugfix invariant: over arbitrary batch splits, per-query
            /// attributed cents sum *exactly* to the platform's integer-cent
            /// spend — no cent dropped or double-counted at a partial
            /// shared-HIT boundary.
            #[test]
            fn attributed_cents_sum_to_platform_cents(
                sizes in prop::collection::vec(0usize..37, 1..12),
                tasks_per_hit in 1usize..25,
                price in 0.01f64..0.50,
                redundancy in 1usize..6,
            ) {
                let cfg = HitConfig { tasks_per_hit, price_per_hit: price };
                let contribs: Vec<(u64, usize)> =
                    sizes.iter().enumerate().map(|(q, &n)| (q as u64, n)).collect();
                let hits = pack_shared(&contribs, cfg);
                let total_tasks: usize = sizes.iter().sum();
                prop_assert_eq!(
                    hits.iter().map(SharedHit::task_count).sum::<usize>(),
                    total_tasks
                );
                prop_assert_eq!(hits.len(), total_tasks.div_ceil(tasks_per_hit));
                let split = attribute_shared_cents(&hits, cfg, redundancy);
                let platform = cfg.hits_cost_cents(hits.len(), redundancy);
                prop_assert_eq!(
                    split.iter().map(|&(_, c)| c).sum::<u64>(),
                    platform,
                    "attribution must conserve platform cents exactly"
                );
                // Only queries that contributed tasks are billed.
                for &(q, cents) in &split {
                    prop_assert!(sizes[q as usize] > 0 || cents == 0);
                }
            }
        }
    }
}
