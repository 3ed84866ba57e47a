//! The crash-safe crowd answer + provenance log.
//!
//! Crowd answers are the most expensive artifact in a CDB deployment, so
//! this log is the system's source of truth for "what has been bought".
//! Two record kinds ride the [`Wal`]:
//!
//! * **Fact** (tag 1): one bought answer —
//!   `(query, measure, left, right, same, votes, cents)`.
//! * **Settle** (tag 2): a commit marker — `(query, fact count)`.
//!
//! [`AnswerLog::append_settled`] writes a query's facts in one batch,
//! fsyncs, then writes the marker and fsyncs again. The marker hitting
//! disk is the *settle point*: recovery keeps only marker-covered facts,
//! so a crash between the two fsyncs (facts on disk, no marker) discards
//! them, and a failed or aborted query — which is never settled at all —
//! can never be resurrected by replay.
//!
//! Recovery ([`AnswerLog::open`]) is one pass over the WAL's borrowed
//! frames: a fact decodes to a [`FactRef`] whose strings point into the
//! log bytes, and each settle marker hands its query's facts, in log
//! order, straight to the caller. Nothing settled is materialized; the
//! [`AnswerRecovery`] keeps counts. A record with bytes left over after
//! its last field is a decode error, as is any other malformed record.
//!
//! A marker covers the `count` facts written immediately before it: one
//! writer appends a whole batch under the cache's log mutex, so a batch
//! is contiguous in the log. Facts before those, back to the previous
//! marker, belong to an attempt that crashed before its settle point and
//! are dropped — even when the crashed query's id settles again later.

use std::path::Path;

use cdb_core::SettledFact;

use crate::codec::{put_bool, put_str, put_u32, put_u64, put_u8_tag, Cursor};
use crate::error::{Result, StoreError};
use crate::wal::{Batch, RecoveryReport, Wal};

const TAG_FACT: u8 = 1;
const TAG_SETTLE: u8 = 2;

/// One settled fact as recovery decodes it: a [`SettledFact`] whose
/// strings are borrowed from the log bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactRef<'a> {
    /// Measure namespace the fact belongs to.
    pub measure: &'a str,
    /// Normalized left value.
    pub left: &'a str,
    /// Normalized right value.
    pub right: &'a str,
    /// The crowd's decision: do the values match?
    pub same: bool,
    /// Worker votes bought for this fact.
    pub votes: u32,
    /// Cents paid for those votes.
    pub cents: u64,
}

/// What replaying an answer log found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerRecovery {
    batches: u64,
    facts: u64,
    cents: u64,
    /// Facts found on disk without a covering settle marker — written by
    /// a query that crashed or aborted before its settle point. Recovery
    /// drops them; they are reported so tests can assert the drop.
    pub dropped_facts: u64,
    /// The underlying WAL scan (segments, frames, torn tail).
    pub wal: RecoveryReport,
}

impl AnswerRecovery {
    /// Settle markers replayed: one per settled query batch.
    pub fn settled_batches(&self) -> u64 {
        self.batches
    }

    /// Total settled facts.
    pub fn settled_facts(&self) -> u64 {
        self.facts
    }

    /// Total cents across all settled facts.
    pub fn settled_cents(&self) -> u64 {
        self.cents
    }
}

fn put_fact(buf: &mut Vec<u8>, query: u64, f: &SettledFact) {
    put_u8_tag(buf, TAG_FACT);
    put_u64(buf, query);
    put_str(buf, &f.measure);
    put_str(buf, &f.left);
    put_str(buf, &f.right);
    put_bool(buf, f.same);
    put_u32(buf, f.votes);
    put_u64(buf, f.cents);
}

fn decode_error(detail: String) -> StoreError {
    StoreError::Decode { detail }
}

/// Append-only, fsync-disciplined log of settled crowd answers.
#[derive(Debug)]
pub struct AnswerLog {
    wal: Wal,
    logged_cents: u64,
    logged_facts: u64,
}

impl AnswerLog {
    /// Open (or create) the log under `dir`, replaying committed history:
    /// each settle marker, in log order, calls `settled` with its query id
    /// and the facts it covers, in the order they were written.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        mut settled: impl FnMut(u64, &[FactRef<'_>]),
    ) -> Result<(AnswerLog, AnswerRecovery)> {
        let mut recovery = AnswerRecovery::default();
        let (wal, report) = Wal::open(dir, segment_bytes, |frames| {
            // Facts since the last settle marker, and how many of the last
            // ones carry `tail_query`.
            let mut run: Vec<FactRef<'_>> = Vec::new();
            let (mut tail_query, mut tail) = (0u64, 0usize);
            for frame in frames {
                let mut c = Cursor::new(frame);
                match c.u8()? {
                    TAG_FACT => {
                        let query = c.u64()?;
                        let fact = FactRef {
                            measure: c.str()?,
                            left: c.str()?,
                            right: c.str()?,
                            same: c.bool()?,
                            votes: c.u32()?,
                            cents: c.u64()?,
                        };
                        c.finish("fact record")?;
                        if query != tail_query {
                            (tail_query, tail) = (query, 0);
                        }
                        tail += 1;
                        run.push(fact);
                    }
                    TAG_SETTLE => {
                        let query = c.u64()?;
                        let count = c.u64()?;
                        c.finish("settle record")?;
                        let covered = if query == tail_query { tail } else { 0 };
                        if count > covered as u64 {
                            return Err(decode_error(format!(
                                "settle marker for query {query} covers {count} facts but only {covered} precede it"
                            )));
                        }
                        let facts = &run[run.len() - count as usize..];
                        let cents = facts
                            .iter()
                            .try_fold(recovery.cents, |sum, f| sum.checked_add(f.cents))
                            .ok_or_else(|| {
                                decode_error(format!("settled cents overflow at query {query}"))
                            })?;
                        recovery.batches += 1;
                        recovery.facts += count;
                        recovery.cents = cents;
                        settled(query, facts);
                        recovery.dropped_facts += (run.len() - facts.len()) as u64;
                        run.clear();
                        tail = 0;
                    }
                    tag => {
                        return Err(decode_error(format!("unknown answer-log record tag {tag}")))
                    }
                }
            }
            recovery.dropped_facts += run.len() as u64;
            Ok(())
        })?;
        recovery.wal = report;
        let log = AnswerLog { wal, logged_cents: recovery.cents, logged_facts: recovery.facts };
        Ok((log, recovery))
    }

    /// Durably settle `facts` for `query`: append every fact frame in one
    /// batch, fsync, append the settle marker, fsync again. Returns only
    /// once the marker — the commit point — is on stable storage.
    pub fn append_settled(&mut self, query: u64, facts: &[SettledFact]) -> Result<()> {
        let mut batch = Batch::default();
        for f in facts {
            batch.push(|buf| put_fact(buf, query, f))?;
        }
        self.wal.append_batch(&batch)?;
        self.wal.sync()?;
        let mut marker = Vec::with_capacity(17);
        put_u8_tag(&mut marker, TAG_SETTLE);
        put_u64(&mut marker, query);
        put_u64(&mut marker, facts.len() as u64);
        self.wal.append(&marker)?;
        self.wal.sync()?;
        self.logged_facts += facts.len() as u64;
        self.logged_cents += facts.iter().map(|f| f.cents).sum::<u64>();
        Ok(())
    }

    /// Cents durably settled over the log's whole history (recovered +
    /// appended this process) — the conservation side of the sim's
    /// no-double-spend check.
    pub fn logged_cents(&self) -> u64 {
        self.logged_cents
    }

    /// Facts durably settled over the log's whole history.
    pub fn logged_facts(&self) -> u64 {
        self.logged_facts
    }

    /// WAL segments in use.
    pub fn segments(&self) -> u64 {
        self.wal.segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use crate::wal::DEFAULT_SEGMENT_BYTES;

    fn fact(measure: &str, left: &str, right: &str, same: bool) -> SettledFact {
        SettledFact {
            measure: measure.into(),
            left: left.into(),
            right: right.into(),
            same,
            votes: 3,
            cents: 15,
        }
    }

    /// Settled batches as owned facts, per query in marker order.
    type Settled = Vec<(u64, Vec<SettledFact>)>;

    /// Open the log, collecting every settled batch as owned facts.
    fn open(dir: &Path, segment_bytes: u64) -> Result<(AnswerLog, Settled, AnswerRecovery)> {
        let mut settled = Vec::new();
        let (log, rec) = AnswerLog::open(dir, segment_bytes, |query, facts| {
            let owned = facts.iter().map(|f| SettledFact {
                measure: f.measure.into(),
                left: f.left.into(),
                right: f.right.into(),
                same: f.same,
                votes: f.votes,
                cents: f.cents,
            });
            settled.push((query, owned.collect()));
        })?;
        Ok((log, settled, rec))
    }

    #[test]
    fn settled_facts_survive_reopen_in_order() {
        let dir = ScratchDir::new("alog-roundtrip");
        {
            let (mut log, settled, _) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            assert!(settled.is_empty());
            log.append_settled(7, &[fact("m", "a", "b", true), fact("m", "a", "c", false)])
                .unwrap();
            log.append_settled(9, &[fact("m", "b", "c", false)]).unwrap();
            assert_eq!(log.logged_cents(), 45);
        }
        let (log, settled, rec) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(settled.len(), 2);
        assert_eq!(settled[0].0, 7);
        assert_eq!(settled[0].1, vec![fact("m", "a", "b", true), fact("m", "a", "c", false)]);
        assert_eq!(settled[1], (9, vec![fact("m", "b", "c", false)]));
        assert_eq!(rec.dropped_facts, 0);
        assert_eq!((rec.settled_batches(), rec.settled_facts(), rec.settled_cents()), (2, 3, 45));
        assert_eq!(log.logged_cents(), 45);
    }

    #[test]
    fn unmarked_facts_are_dropped_on_recovery() {
        let dir = ScratchDir::new("alog-unsettled");
        {
            let (mut log, _, _) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            log.append_settled(1, &[fact("m", "a", "b", true)]).unwrap();
        }
        // Append two fact frames with no settle marker — the on-disk
        // shape of a query that died before its settle point.
        {
            let (mut wal, _) = Wal::open(dir.path(), DEFAULT_SEGMENT_BYTES, |_| Ok(())).unwrap();
            for f in [fact("m", "x", "y", true), fact("m", "x", "z", false)] {
                let mut buf = Vec::new();
                put_fact(&mut buf, 2, &f);
                wal.append(&buf).unwrap();
            }
            wal.sync().unwrap();
        }
        let (log, settled, rec) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(settled.len(), 1);
        assert_eq!(rec.dropped_facts, 2);
        assert_eq!(log.logged_cents(), 15); // dropped facts cost nothing durable
    }

    #[test]
    fn a_marker_covers_only_the_facts_of_its_query_just_before_it() {
        for (marker_query, count) in [(2u64, 1u64), (1, 2)] {
            let dir = ScratchDir::new("alog-overcount");
            {
                let (mut wal, _) =
                    Wal::open(dir.path(), DEFAULT_SEGMENT_BYTES, |_| Ok(())).unwrap();
                for (query, f) in
                    [(2u64, fact("m", "a", "b", true)), (1, fact("m", "a", "c", true))]
                {
                    let mut buf = Vec::new();
                    put_fact(&mut buf, query, &f);
                    wal.append(&buf).unwrap();
                }
                let mut marker = Vec::new();
                put_u8_tag(&mut marker, TAG_SETTLE);
                put_u64(&mut marker, marker_query);
                put_u64(&mut marker, count);
                wal.append(&marker).unwrap();
                wal.sync().unwrap();
            }
            let err = open(dir.path(), DEFAULT_SEGMENT_BYTES).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, StoreError::Decode { detail } if detail.contains("only")),
                "marker ({marker_query}, {count}): {err:?}"
            );
        }
    }

    #[test]
    fn empty_settle_is_legal_and_cheap() {
        let dir = ScratchDir::new("alog-emptysettle");
        {
            let (mut log, _, _) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            log.append_settled(3, &[]).unwrap();
        }
        let (_, settled, rec) = open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(settled, vec![(3, vec![])]);
        assert_eq!(rec.settled_cents(), 0);
    }

    #[test]
    fn rotation_spans_are_replayed_whole() {
        let dir = ScratchDir::new("alog-rotate");
        let n = 40u64;
        {
            // Tiny segments force rotation inside a settle batch.
            let (mut log, _, _) = open(dir.path(), 256).unwrap();
            for q in 0..n {
                log.append_settled(q, &[fact("m", &format!("v{q}"), "w", q % 2 == 0)]).unwrap();
            }
            assert!(log.segments() > 1);
        }
        let (_, settled, rec) = open(dir.path(), 256).unwrap();
        assert_eq!(settled.len(), n as usize);
        assert_eq!(rec.settled_facts(), n);
        assert!(rec.wal.torn.is_none());
    }

    #[test]
    fn a_batch_writes_the_same_segments_as_frame_by_frame_appends() {
        let facts: Vec<SettledFact> =
            (0..9).map(|i| fact("m", &format!("left value {i}"), "w", i % 3 == 0)).collect();
        let (batched, framed) = (ScratchDir::new("alog-batched"), ScratchDir::new("alog-framed"));
        {
            let (mut log, _, _) = open(batched.path(), 256).unwrap();
            log.append_settled(4, &facts[..2]).unwrap();
            log.append_settled(5, &facts[2..]).unwrap(); // rotates mid-batch
            assert!(log.segments() > 2);
        }
        {
            let (mut wal, _) = Wal::open(framed.path(), 256, |_| Ok(())).unwrap();
            for (query, batch) in [(4u64, &facts[..2]), (5, &facts[2..])] {
                for f in batch {
                    let mut buf = Vec::new();
                    put_fact(&mut buf, query, f);
                    wal.append(&buf).unwrap();
                }
                wal.sync().unwrap();
                let mut marker = Vec::new();
                put_u8_tag(&mut marker, TAG_SETTLE);
                put_u64(&mut marker, query);
                put_u64(&mut marker, batch.len() as u64);
                wal.append(&marker).unwrap();
                wal.sync().unwrap();
            }
        }
        let read = |dir: &ScratchDir| -> Vec<Vec<u8>> {
            let paths = crate::wal::segment_paths(dir.path()).unwrap();
            paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
        };
        assert_eq!(read(&batched), read(&framed));
    }

    #[test]
    fn a_record_with_trailing_bytes_is_a_decode_error() {
        for tag in [TAG_FACT, TAG_SETTLE] {
            let dir = ScratchDir::new("alog-trailing");
            {
                let (mut wal, _) =
                    Wal::open(dir.path(), DEFAULT_SEGMENT_BYTES, |_| Ok(())).unwrap();
                let mut buf = Vec::new();
                if tag == TAG_FACT {
                    put_fact(&mut buf, 1, &fact("m", "a", "b", true));
                } else {
                    put_u8_tag(&mut buf, TAG_SETTLE);
                    put_u64(&mut buf, 1);
                    put_u64(&mut buf, 0);
                }
                buf.push(0); // one byte past the last field, under a valid CRC
                wal.append(&buf).unwrap();
                wal.sync().unwrap();
            }
            let err = open(dir.path(), DEFAULT_SEGMENT_BYTES).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, StoreError::Decode { detail } if detail.contains("trailing")),
                "tag {tag}: {err:?}"
            );
        }
    }
}
