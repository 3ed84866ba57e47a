//! Sessions that share one cache snapshot must behave exactly like private
//! copies. Over random fleets of 1–4 sessions per snapshot, two measures,
//! values spelled with case and whitespace variants, noisy yes/no answers
//! (so contradictions occur) and `ln == rn` pairs: after every step, every
//! live session and the cache resolve every pair — provenance depth
//! included — exactly as a model rebuilt in a fresh, unshared
//! `ReuseSession::default()` from the cache's `recorded()` answers followed
//! by the session's own records. A write that leaked into the shared state
//! would show up in a sibling session or in the cache.

use cdb_core::{Recorded, ReuseCache, ReuseSession};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MEASURES: [&str; 2] = ["R.a~S.a", "R.b~S.b"];

/// Spellings of six entities: every pair of spellings in a row normalizes
/// to the same value.
const SPELLINGS: [[&str; 2]; 6] = [
    ["ibm", " IBM "],
    ["ibm corp", "IBM   Corp"],
    ["apple", "APPLE"],
    ["apple inc", "Apple\tInc"],
    ["mit", "M I T"],
    ["m i t", " m  i  t "],
];

/// A session under test plus its unshared model: the snapshot's recorded
/// answers replayed into a default session, then the same calls.
struct Pair {
    live: ReuseSession,
    model: ReuseSession,
    /// Answers the model inherited from the snapshot, before its own.
    inherited: usize,
}

fn model_of(cache: &ReuseCache) -> ReuseSession {
    let mut model = ReuseSession::default();
    for (measure, left, right, same) in cache.recorded() {
        assert_eq!(model.record(&measure, &left, &right, same), Recorded::Inserted);
    }
    model
}

/// Resolve every pair of spellings under every measure on both sides.
fn check_resolves(
    live: &mut ReuseSession,
    model: &mut ReuseSession,
    who: &str,
) -> Result<(), TestCaseError> {
    for measure in MEASURES {
        for (i, left) in SPELLINGS.iter().enumerate() {
            for (j, right) in SPELLINGS.iter().enumerate() {
                let (l, r) = (left[(i + j) % 2], right[i % 2]);
                let got = live.resolve(measure, l, r);
                let want = model.resolve(measure, l, r);
                prop_assert_eq!(
                    got,
                    want,
                    "{who} resolve({measure}, {l:?}, {r:?}): {got:?} != {want:?}"
                );
            }
        }
    }
    prop_assert_eq!(live.hits(), model.hits(), "{} hits", who);
    prop_assert_eq!(live.depth_sum(), model.depth_sum(), "{} depth_sum", who);
    Ok(())
}

/// Check every live session and the cache against their models.
fn check_all(
    cache: &ReuseCache,
    ledger: &ReuseSession,
    pairs: &mut [Pair],
) -> Result<(), TestCaseError> {
    let recorded = cache.recorded();
    prop_assert_eq!(&recorded[..], ledger.fresh_facts(), "cache recorded()");
    prop_assert_eq!(cache.len(), recorded.len(), "cache len()");
    prop_assert_eq!(cache.conflicts(), ledger.conflicts(), "cache conflicts()");
    let mut rebuilt = model_of(cache);
    for measure in MEASURES {
        for left in SPELLINGS {
            for right in SPELLINGS {
                let (l, r) = (left[0], right[1]);
                let (got, want) = (cache.resolve(measure, l, r), rebuilt.resolve(measure, l, r));
                prop_assert_eq!(
                    got,
                    want,
                    "cache resolve({measure}, {l:?}, {r:?}): {got:?} != {want:?}"
                );
            }
        }
    }
    for (k, pair) in pairs.iter_mut().enumerate() {
        check_resolves(&mut pair.live, &mut pair.model, &format!("session {k}"))?;
        prop_assert_eq!(pair.live.fresh_facts(), &pair.model.fresh_facts()[pair.inherited..]);
        prop_assert_eq!(pair.live.conflicts(), pair.model.conflicts(), "session {} conflicts", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn shared_sessions_equal_private_copies(seed in 0u64..1_000_000, fleets in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Ground truth per measure; answers flip with probability 0.2.
        let truth: Vec<Vec<usize>> = MEASURES
            .iter()
            .map(|_| (0..SPELLINGS.len()).map(|_| rng.gen_range(0..3usize)).collect())
            .collect();
        let cache = ReuseCache::new();
        // The cache's own model: every absorbed fresh fact, in absorb order.
        let mut ledger = ReuseSession::default();
        for _fleet in 0..fleets {
            let mut pairs: Vec<Pair> = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let model = model_of(&cache);
                    Pair { live: cache.snapshot(), inherited: model.fresh_facts().len(), model }
                })
                .collect();
            check_all(&cache, &ledger, &mut pairs)?;
            for _step in 0..rng.gen_range(1..24usize) {
                let k = rng.gen_range(0..pairs.len());
                let m = rng.gen_range(0..MEASURES.len());
                let i = rng.gen_range(0..SPELLINGS.len());
                let j = rng.gen_range(0..SPELLINGS.len());
                let l = SPELLINGS[i][rng.gen_range(0..2usize)];
                let r = SPELLINGS[j][rng.gen_range(0..2usize)];
                let pair = &mut pairs[k];
                if rng.gen_bool(0.75) {
                    let same = (truth[m][i] == truth[m][j]) != rng.gen_bool(0.2);
                    let got = pair.live.record(MEASURES[m], l, r, same);
                    let want = pair.model.record(MEASURES[m], l, r, same);
                    prop_assert_eq!(got, want, "record({m}, {l:?}, {r:?}, {same}): {got:?}");
                } else {
                    let got = pair.live.resolve(MEASURES[m], l, r);
                    prop_assert_eq!(got, pair.model.resolve(MEASURES[m], l, r));
                }
                check_all(&cache, &ledger, &mut pairs)?;
            }
            // Absorb in id order: either as the runtime does, every session
            // released first so the cache is written in place, or with every
            // session alive and sharing the cache's storage.
            let release = rng.gen_bool(0.5);
            if release {
                for pair in &mut pairs {
                    pair.live.release();
                }
            }
            for k in 0..pairs.len() {
                for (measure, left, right, same) in pairs[k].live.fresh_facts() {
                    ledger.record(measure, left, right, *same);
                }
                cache.absorb(&pairs[k].live);
                let alive = if release { &mut [][..] } else { &mut pairs[..] };
                check_all(&cache, &ledger, alive)?;
            }
        }
    }
}
