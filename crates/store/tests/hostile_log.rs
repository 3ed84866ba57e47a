//! Hostile bytes in a settled answer log. Each seeded case damages one
//! copy of a settled multi-segment log — a bit flip, a truncation, a lying
//! frame length, a lying string length or invalid UTF-8 (the last two under
//! a recomputed CRC, so they reach the decoder) — and reopens it.
//! [`DurableReuseCache::open`] must either succeed, with a torn tail only
//! in the last segment and only facts that were settled, or return a typed
//! [`StoreError`]. It must never panic.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use cdb_core::SettledFact;
use cdb_store::crc::crc32;
use cdb_store::wal::segment_paths;
use cdb_store::{AnswerLog, DurableReuseCache, ScratchDir, StoreError};

const QUERIES: u64 = 24;
const FACTS_PER_QUERY: u64 = 6;

/// Settle every query into `dir` over 1 KiB segments; returns the facts.
fn settle_log(dir: &Path) -> Vec<SettledFact> {
    let (mut log, _) = AnswerLog::open(dir, 1 << 10, |_, _| {}).expect("open log");
    let mut all = Vec::new();
    for q in 0..QUERIES {
        let facts: Vec<SettledFact> = (0..FACTS_PER_QUERY)
            .map(|i| SettledFact {
                measure: format!("hostile{}.name~name", q % 3),
                left: format!("straße #{}", (q * 7 + i) % 19),
                right: format!("σοφία #{}", (q + i * 5) % 23),
                same: (q + i) % 3 == 0,
                votes: 3,
                cents: 15,
            })
            .collect();
        log.append_settled(q, &facts).expect("settle");
        all.extend(facts);
    }
    assert!(log.segments() >= 4, "{} segments", log.segments());
    all
}

/// The next value of a xorshift64 stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Frame offsets of one segment: `(header offset, payload length)`.
fn frames(raw: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + 8 <= raw.len() {
        let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
        out.push((off, len));
        off += 8 + len;
    }
    out
}

/// Re-checksum the frame at `off` after its payload was edited.
fn reseal(raw: &mut [u8], off: usize, len: usize) {
    let crc = crc32(&raw[off + 8..off + 8 + len]);
    raw[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Damage one segment of `dir` as case `kind` with randomness from `x`;
/// returns a description for failure messages.
fn damage(dir: &Path, kind: u64, x: &mut u64) -> String {
    let paths = segment_paths(dir).expect("segments");
    let seg = (next(x) % paths.len() as u64) as usize;
    let mut raw = std::fs::read(&paths[seg]).expect("read segment");
    // Fact frames (tag 1): the resealed edits below aim at their strings.
    let facts: Vec<(usize, usize)> =
        frames(&raw).into_iter().filter(|&(o, _)| raw[o + 8] == 1).collect();
    let (off, len) = facts[(next(x) % facts.len() as u64) as usize];
    // The measure, the first string, sits after the tag and the query id.
    let measure_len = u32::from_le_bytes(raw[off + 17..off + 21].try_into().unwrap()) as u64;
    let what = match kind {
        0 => {
            let bit = (next(x) % (raw.len() as u64 * 8)) as usize;
            raw[bit / 8] ^= 1 << (bit % 8);
            format!("bit {bit} flipped")
        }
        1 => {
            let cut = (next(x) % raw.len() as u64) as usize;
            raw.truncate(cut);
            format!("cut at byte {cut}")
        }
        2 => {
            let lie = next(x) as u32;
            raw[off..off + 4].copy_from_slice(&lie.to_le_bytes());
            format!("frame at {off} claims {lie} bytes")
        }
        3 => {
            let lie = (next(x) % 64) as u32;
            raw[off + 17..off + 21].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut raw, off, len);
            format!("fact at {off}: measure claims {lie} bytes, resealed")
        }
        _ => {
            let at = off + 21 + (next(x) % measure_len) as usize;
            raw[at] = 0xFF; // never valid in UTF-8
            reseal(&mut raw, off, len);
            format!("fact at {off}: measure byte {at} set to 0xFF, resealed")
        }
    };
    std::fs::write(&paths[seg], &raw).expect("write segment");
    format!("segment {seg} of {}: {what}", paths.len())
}

#[test]
fn a_damaged_log_opens_to_settled_facts_or_a_typed_error() {
    let clean = ScratchDir::new("hostile-clean");
    let settled: HashSet<(String, String, String, bool)> = settle_log(clean.path())
        .into_iter()
        .map(|f| (f.measure, f.left, f.right, f.same))
        .collect();
    let clean_paths = segment_paths(clean.path()).expect("segments");
    let last = clean_paths.len() as u64 - 1;

    let (mut opened, mut refused) = (0, 0);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for case in 0..250u64 {
        let dir = ScratchDir::new("hostile-case");
        for p in &clean_paths {
            std::fs::copy(p, dir.path().join(p.file_name().unwrap())).expect("copy segment");
        }
        let what = damage(dir.path(), case % 5, &mut x);
        let result = catch_unwind(AssertUnwindSafe(|| DurableReuseCache::open(dir.path())))
            .unwrap_or_else(|_| panic!("case {case} ({what}): open panicked"));
        match result {
            Ok(cache) => {
                opened += 1;
                let rec = cache.recovery();
                if let Some((segment, _, _)) = &rec.wal.torn {
                    assert_eq!(*segment, last, "case {case} ({what}): torn tail before the end");
                }
                assert!(rec.settled_facts() <= QUERIES * FACTS_PER_QUERY, "case {case} ({what})");
                assert_eq!(rec.settled_cents(), 15 * rec.settled_facts(), "case {case} ({what})");
                for fact in cache.cache().recorded() {
                    assert!(
                        settled.contains(&fact),
                        "case {case} ({what}): {fact:?} never settled"
                    );
                }
            }
            Err(StoreError::WalCorrupt { .. } | StoreError::Decode { .. }) => refused += 1,
            Err(e) => panic!("case {case} ({what}): untyped failure {e:?}"),
        }
    }
    // Both outcomes occur: damage in the last segment is a torn tail,
    // damage before it or under a valid checksum is refused.
    assert!(opened > 0 && refused > 0, "{opened} opened, {refused} refused");
}
