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
//! [`AnswerLog::append_settled`] writes a query's facts, fsyncs, then
//! writes the marker and fsyncs again. The marker hitting disk is the
//! *settle point*: recovery keeps only marker-covered facts, so a crash
//! between the two fsyncs (facts on disk, no marker) discards them, and
//! a failed or aborted query — which is never settled at all — can never
//! be resurrected by replay.

use std::collections::HashMap;
use std::path::Path;

use cdb_core::SettledFact;

use crate::codec::{put_bool, put_str, put_u32, put_u64, put_u8_tag, Cursor};
use crate::error::{Result, StoreError};
use crate::wal::{RecoveryReport, Wal};

const TAG_FACT: u8 = 1;
const TAG_SETTLE: u8 = 2;

/// What replaying an answer log produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRecovery {
    /// Marker-committed facts, grouped per settled query, in log order.
    pub settled: Vec<(u64, Vec<SettledFact>)>,
    /// Facts found on disk without a covering settle marker — written by
    /// a query that crashed or aborted before its settle point. Recovery
    /// drops them; they are reported so tests can assert the drop.
    pub dropped_facts: u64,
    /// The underlying WAL scan (segments, frames, torn tail).
    pub wal: RecoveryReport,
}

impl AnswerRecovery {
    /// Total cents across all settled facts.
    pub fn settled_cents(&self) -> u64 {
        self.settled.iter().flat_map(|(_, fs)| fs).map(|f| f.cents).sum()
    }

    /// Total settled facts.
    pub fn settled_facts(&self) -> u64 {
        self.settled.iter().map(|(_, fs)| fs.len() as u64).sum()
    }
}

/// Append-only, fsync-disciplined log of settled crowd answers.
#[derive(Debug)]
pub struct AnswerLog {
    wal: Wal,
    logged_cents: u64,
    logged_facts: u64,
}

impl AnswerLog {
    /// Open (or create) the log under `dir`, replaying committed history.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(AnswerLog, AnswerRecovery)> {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let (wal, report) = Wal::open(dir, segment_bytes, |p| frames.push(p))?;

        let mut settled: Vec<(u64, Vec<SettledFact>)> = Vec::new();
        // Facts not yet covered by a settle marker, per query in log order.
        let mut pending: HashMap<u64, Vec<SettledFact>> = HashMap::new();
        for frame in &frames {
            let mut c = Cursor::new(frame);
            match c.u8()? {
                TAG_FACT => {
                    let query = c.u64()?;
                    let fact = SettledFact {
                        measure: c.str()?,
                        left: c.str()?,
                        right: c.str()?,
                        same: c.bool()?,
                        votes: c.u32()?,
                        cents: c.u64()?,
                    };
                    pending.entry(query).or_default().push(fact);
                }
                TAG_SETTLE => {
                    let query = c.u64()?;
                    let count = c.u64()?;
                    let facts = pending.remove(&query).unwrap_or_default();
                    if facts.len() as u64 != count {
                        return Err(StoreError::Decode {
                            detail: format!(
                                "settle marker for query {query} covers {count} facts but {} were pending",
                                facts.len()
                            ),
                        });
                    }
                    settled.push((query, facts));
                }
                tag => {
                    return Err(StoreError::Decode {
                        detail: format!("unknown answer-log record tag {tag}"),
                    })
                }
            }
        }

        let dropped_facts = pending.values().map(|facts| facts.len() as u64).sum();
        let recovery = AnswerRecovery { dropped_facts, settled, wal: report };
        let (logged_cents, logged_facts) = (recovery.settled_cents(), recovery.settled_facts());
        Ok((AnswerLog { wal, logged_cents, logged_facts }, recovery))
    }

    /// Durably settle `facts` for `query`: append every fact frame, fsync,
    /// append the settle marker, fsync again. Returns only once the
    /// marker — the commit point — is on stable storage.
    pub fn append_settled(&mut self, query: u64, facts: &[SettledFact]) -> Result<()> {
        for f in facts {
            let mut buf = Vec::with_capacity(64);
            put_u8_tag(&mut buf, TAG_FACT);
            put_u64(&mut buf, query);
            put_str(&mut buf, &f.measure);
            put_str(&mut buf, &f.left);
            put_str(&mut buf, &f.right);
            put_bool(&mut buf, f.same);
            put_u32(&mut buf, f.votes);
            put_u64(&mut buf, f.cents);
            self.wal.append(&buf)?;
        }
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

    #[test]
    fn settled_facts_survive_reopen_in_order() {
        let dir = ScratchDir::new("alog-roundtrip");
        {
            let (mut log, rec) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            assert!(rec.settled.is_empty());
            log.append_settled(7, &[fact("m", "a", "b", true), fact("m", "a", "c", false)])
                .unwrap();
            log.append_settled(9, &[fact("m", "b", "c", false)]).unwrap();
            assert_eq!(log.logged_cents(), 45);
        }
        let (log, rec) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(rec.settled.len(), 2);
        assert_eq!(rec.settled[0].0, 7);
        assert_eq!(rec.settled[0].1, vec![fact("m", "a", "b", true), fact("m", "a", "c", false)]);
        assert_eq!(rec.settled[1], (9, vec![fact("m", "b", "c", false)]));
        assert_eq!(rec.dropped_facts, 0);
        assert_eq!(rec.settled_cents(), 45);
        assert_eq!(log.logged_cents(), 45);
    }

    #[test]
    fn unmarked_facts_are_dropped_on_recovery() {
        let dir = ScratchDir::new("alog-unsettled");
        {
            let (mut log, _) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            log.append_settled(1, &[fact("m", "a", "b", true)]).unwrap();
        }
        // Append two fact frames with no settle marker — the on-disk
        // shape of a query that died before its settle point.
        {
            let (mut wal, _) = Wal::open(dir.path(), DEFAULT_SEGMENT_BYTES, |_| {}).unwrap();
            for f in [fact("m", "x", "y", true), fact("m", "x", "z", false)] {
                let mut buf = Vec::new();
                put_u8_tag(&mut buf, TAG_FACT);
                put_u64(&mut buf, 2);
                put_str(&mut buf, &f.measure);
                put_str(&mut buf, &f.left);
                put_str(&mut buf, &f.right);
                put_bool(&mut buf, f.same);
                put_u32(&mut buf, f.votes);
                put_u64(&mut buf, f.cents);
                wal.append(&buf).unwrap();
            }
            wal.sync().unwrap();
        }
        let (log, rec) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(rec.settled.len(), 1);
        assert_eq!(rec.dropped_facts, 2);
        assert_eq!(log.logged_cents(), 15); // dropped facts cost nothing durable
    }

    #[test]
    fn empty_settle_is_legal_and_cheap() {
        let dir = ScratchDir::new("alog-emptysettle");
        {
            let (mut log, _) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
            log.append_settled(3, &[]).unwrap();
        }
        let (_, rec) = AnswerLog::open(dir.path(), DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(rec.settled, vec![(3, vec![])]);
        assert_eq!(rec.settled_cents(), 0);
    }

    #[test]
    fn rotation_spans_are_replayed_whole() {
        let dir = ScratchDir::new("alog-rotate");
        let n = 40u64;
        {
            // Tiny segments force rotation inside a settle batch.
            let (mut log, _) = AnswerLog::open(dir.path(), 256).unwrap();
            for q in 0..n {
                log.append_settled(q, &[fact("m", &format!("v{q}"), "w", q % 2 == 0)]).unwrap();
            }
            assert!(log.segments() > 1);
        }
        let (_, rec) = AnswerLog::open(dir.path(), 256).unwrap();
        assert_eq!(rec.settled.len(), n as usize);
        assert_eq!(rec.settled_facts(), n);
        assert!(rec.wal.torn.is_none());
    }
}
