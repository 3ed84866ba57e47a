//! Crash points of the answer log, after ALICE (Pillai et al., "All File
//! Systems Are Not Created Equal", OSDI 2014) in miniature and std-only.
//! A crash loses the unsynced tail of the log, so cutting the segment
//! stream at an offset — truncating the segment that holds it and deleting
//! every later one — leaves what a crash there leaves on disk.
//!
//! A scripted settle history (query ids that recur, queries that crash
//! inside their settle and settle again under their own id, 256-byte
//! segments) is cut at every frame boundary and at offsets inside every
//! frame. After each cut the log must reopen to exactly the batches whose
//! markers precede the cut, with their cents; rerunning every lost query
//! under its own id and reopening again must give the cache of a process
//! that never crashed.

use std::path::Path;

use cdb_core::{ReuseCache, SettledFact};
use cdb_store::wal::segment_paths;
use cdb_store::{AnswerLog, AnswerRecovery, ScratchDir};

const SEGMENT_BYTES: u64 = 256;

/// A settle marker's frame: an 8-byte header and a 17-byte payload.
const MARKER_BYTES: u64 = 8 + 17;

const MEASURES: [&str; 2] = ["crash.a~b", "crash.c~d"];

/// One settled batch: the query id and its facts.
type Batch = (u64, Vec<SettledFact>);

fn value(i: u64) -> String {
    format!("item #{i}")
}

fn fact(measure: usize, left: u64, right: u64, same: bool) -> SettledFact {
    SettledFact {
        measure: MEASURES[measure].into(),
        left: value(left),
        right: value(right),
        same,
        votes: 3,
        cents: 5 * (left + right + 1),
    }
}

/// The settle history: `(query, facts, crashes first)`. A query that
/// crashes first writes its facts with the first answer flipped, loses its
/// marker, and then settles under the same id.
fn script() -> Vec<(u64, Vec<SettledFact>, bool)> {
    vec![
        (0, vec![fact(0, 0, 1, true), fact(0, 1, 2, true), fact(1, 0, 1, false)], false),
        (1, vec![fact(0, 2, 3, false), fact(1, 1, 2, true)], false),
        (2, vec![fact(0, 3, 4, true), fact(0, 0, 4, false), fact(1, 2, 3, true)], true),
        (3, vec![fact(1, 0, 3, false)], false),
        (2, vec![fact(0, 4, 5, true), fact(1, 3, 4, true)], true),
        (4, vec![], false),
        (5, vec![fact(0, 5, 1, false), fact(1, 4, 5, true), fact(1, 3, 5, false)], false),
    ]
}

/// Open the log under `dir`: the log, the cache its settled facts
/// rebuild, every settled batch in log order, and the recovery report.
fn open(dir: &Path) -> (AnswerLog, ReuseCache, Vec<Batch>, AnswerRecovery) {
    let cache = ReuseCache::new();
    let mut settled = Vec::new();
    let (log, recovery) = AnswerLog::open(dir, SEGMENT_BYTES, |query, facts| {
        cache.replay(facts.iter().map(|f| (f.measure, f.left, f.right, f.same)));
        let owned = facts.iter().map(|f| SettledFact {
            measure: f.measure.into(),
            left: f.left.into(),
            right: f.right.into(),
            same: f.same,
            votes: f.votes,
            cents: f.cents,
        });
        settled.push((query, owned.collect()));
    })
    .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    (log, cache, settled, recovery)
}

/// The segments' sizes in index order.
fn segment_lens(dir: &Path) -> Vec<u64> {
    let paths = segment_paths(dir).expect("segments");
    paths.iter().map(|p| std::fs::metadata(p).expect("stat segment").len()).collect()
}

/// Cut the segment stream `at` bytes in: truncate the segment holding the
/// cut and delete every later one.
fn cut(dir: &Path, at: u64) {
    let mut start = 0;
    for (path, len) in segment_paths(dir).expect("segments").iter().zip(segment_lens(dir)) {
        if start > at {
            std::fs::remove_file(path).expect("delete segment");
        } else if at < start + len {
            let f = std::fs::OpenOptions::new().write(true).open(path).expect("open segment");
            f.set_len(at - start).expect("truncate segment");
        }
        start += len;
    }
}

/// `(offset, length)` of every frame in the segment stream.
fn frames(dir: &Path) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut start = 0;
    for path in segment_paths(dir).expect("segments") {
        let raw = std::fs::read(&path).expect("read segment");
        let mut off = 0;
        while off + 8 <= raw.len() {
            let len = 8 + u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
            out.push((start + off as u64, len as u64));
            off += len;
        }
        start += raw.len() as u64;
    }
    out
}

/// Write the script into `dir`; returns each settled batch with the
/// stream length once its marker was written.
fn write_history(dir: &Path) -> Vec<(u64, Batch)> {
    let (mut settled, mut dropped) = (Vec::new(), 0);
    for (query, facts, crashes) in script() {
        if crashes {
            let mut flipped = facts.clone();
            flipped[0].same = !flipped[0].same;
            open(dir).0.append_settled(query, &flipped).expect("settle");
            cut(dir, segment_lens(dir).iter().sum::<u64>() - MARKER_BYTES);
            dropped += flipped.len() as u64;
            assert_eq!(open(dir).3.dropped_facts, dropped);
        }
        open(dir).0.append_settled(query, &facts).expect("settle");
        settled.push((segment_lens(dir).iter().sum(), (query, facts)));
    }
    settled
}

/// Every pair the script could touch, on both measures.
fn outcomes(cache: &ReuseCache) -> Vec<String> {
    let pairs =
        MEASURES.iter().flat_map(|m| (0..6).flat_map(move |a| (0..6).map(move |b| (m, a, b))));
    pairs.map(|(m, a, b)| format!("{:?}", cache.resolve(m, &value(a), &value(b)))).collect()
}

fn cents(batches: &[Batch]) -> u64 {
    batches.iter().flat_map(|(_, facts)| facts).map(|f| f.cents).sum()
}

#[test]
fn a_crashed_query_id_can_settle_again() {
    let dir = ScratchDir::new("crash-rerun");
    {
        let mut log = open(dir.path()).0;
        log.append_settled(1, &[fact(0, 1, 2, true)]).expect("settle");
        log.append_settled(2, &[fact(0, 2, 3, false)]).expect("settle");
    }
    // The crash between the two fsyncs of query 2's settle.
    cut(dir.path(), segment_lens(dir.path()).iter().sum::<u64>() - MARKER_BYTES);
    let (mut log, _, settled, recovery) = open(dir.path());
    assert_eq!((settled.len(), recovery.dropped_facts), (1, 1));
    log.append_settled(2, &[fact(0, 2, 3, true)]).expect("settle again");
    drop(log);
    let (_, cache, settled, recovery) = open(dir.path());
    let expected = vec![(1, vec![fact(0, 1, 2, true)]), (2, vec![fact(0, 2, 3, true)])];
    assert_eq!(settled, expected);
    assert_eq!((recovery.dropped_facts, recovery.settled_cents()), (1, 20 + 30));
    let hit = cache.resolve(MEASURES[0], &value(1), &value(3));
    assert!(matches!(hit, cdb_core::ReuseOutcome::Hit { same: true, .. }), "{hit:?}");
}

#[test]
fn every_crash_point_reopens_to_the_settled_prefix_and_reruns_to_the_immortal_cache() {
    let clean = ScratchDir::new("crash-clean");
    let history = write_history(clean.path());
    assert!(segment_lens(clean.path()).len() > 2, "the history rotates segments");
    let all: Vec<Batch> = history.iter().map(|(_, batch)| batch.clone()).collect();

    // The process that never crashed: every batch absorbed in order.
    let immortal = ReuseCache::new();
    for (_, facts) in &all {
        let mut session = immortal.snapshot();
        for f in facts {
            session.record(&f.measure, &f.left, &f.right, f.same);
        }
        immortal.absorb(&session);
    }

    let mut points: Vec<u64> = frames(clean.path())
        .into_iter()
        .flat_map(|(at, len)| [at, at + 1, at + 7, at + 8, at + len / 2, at + len - 1])
        .chain([segment_lens(clean.path()).iter().sum()])
        .collect();
    points.sort_unstable();
    points.dedup();
    for at in points {
        let dir = ScratchDir::new("crash-point");
        for p in segment_paths(clean.path()).expect("segments") {
            std::fs::copy(&p, dir.path().join(p.file_name().unwrap())).expect("copy segment");
        }
        cut(dir.path(), at);
        let (mut log, _, settled, recovery) = open(dir.path());
        let kept = history.iter().take_while(|(end, _)| *end <= at).count();
        assert_eq!(settled, all[..kept], "cut at {at}");
        assert_eq!(recovery.settled_cents(), cents(&all[..kept]), "cut at {at}");
        // Rerun every lost query under its own id.
        for (query, facts) in &all[kept..] {
            log.append_settled(*query, facts).expect("rerun");
        }
        assert_eq!(log.logged_cents(), cents(&all), "cut at {at}");
        drop(log);
        let (log, cache, settled, recovery) = open(dir.path());
        assert_eq!(settled, all, "cut at {at}: after the reruns");
        assert_eq!((recovery.settled_cents(), log.logged_cents()), (cents(&all), cents(&all)));
        assert_eq!(outcomes(&cache), outcomes(&immortal), "cut at {at}");
        assert_eq!(cache.recorded(), immortal.recorded(), "cut at {at}");
    }
}
