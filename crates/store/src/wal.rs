//! Append-only write-ahead log with CRC-framed records and segment
//! rotation.
//!
//! One frame on disk:
//!
//! ```text
//! +---------+---------+----------------+
//! | len u32 | crc u32 | payload (len)  |
//! +---------+---------+----------------+
//! ```
//!
//! `crc` is the CRC-32 of the payload. Frames are appended to segment
//! files `wal-NNNNNNNN.log`; when the active segment would exceed the
//! configured size, the log syncs it and rotates to the next index.
//!
//! Recovery ([`Wal::open`]) reads every segment, checks every frame, and
//! only then replays the valid frames in order, each payload borrowed from
//! the bytes it read ([`Frames`]): nothing is copied per frame. A bad
//! frame at the tail of the *last* segment is the expected signature of a
//! crash mid-append: the tail is truncated at the last valid frame and
//! reported in the [`RecoveryReport`]. A bad frame anywhere else means the
//! settled prefix was damaged and surfaces as [`StoreError::WalCorrupt`]
//! before anything is replayed — recovery refuses to guess.
//!
//! Appends go through a [`Batch`] of frames encoded back to back, written
//! with one `write_all` per segment the batch touches.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::{Result, StoreError};

/// Upper bound on one frame's payload; lengths above this are treated as
/// corruption rather than an allocation request.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

/// Default segment rotation threshold (bytes).
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Valid frames replayed.
    pub records: u64,
    /// Total valid payload bytes replayed.
    pub bytes: u64,
    /// Present when the last segment ended in a torn frame that was
    /// truncated away: `(segment index, byte offset, reason)`.
    pub torn: Option<(u64, u64, String)>,
}

/// A segmented, checksummed append-only log rooted at one directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    cur_index: u64,
    cur_file: File,
    cur_size: u64,
}

/// Existing segment files under `dir`, sorted by segment index.
pub fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list wal dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list wal dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".log") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

fn segment_index(path: &Path) -> u64 {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("wal-"))
        .and_then(|n| n.strip_suffix(".log"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

fn open_segment(path: &Path) -> Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| StoreError::io(&format!("open wal segment {}", path.display()), e))
}

/// Check one segment's frames, counting the valid ones into `report`.
/// Returns the offset where valid data ends and, if the segment ends in
/// garbage, the reason.
fn scan_segment(raw: &[u8], report: &mut RecoveryReport) -> (usize, Option<String>) {
    let mut off = 0usize;
    loop {
        let rest = &raw[off..];
        if rest.is_empty() {
            return (off, None);
        }
        let Some((header, body)) = rest.split_first_chunk::<8>() else {
            return (off, Some("truncated frame header".into()));
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_FRAME_PAYLOAD {
            return (off, Some(format!("implausible frame length {len}")));
        }
        let Some(payload) = body.get(..len as usize) else {
            return (off, Some("truncated frame body".into()));
        };
        if crc32(payload) != crc {
            return (off, Some("frame checksum mismatch".into()));
        }
        report.records += 1;
        report.bytes += len as u64;
        off += 8 + len as usize;
    }
}

/// The valid frames of every segment in log order, each payload borrowed
/// from the segment bytes [`Wal::open`] read and checked.
#[derive(Debug)]
pub struct Frames<'a> {
    segments: std::slice::Iter<'a, Vec<u8>>,
    rest: &'a [u8],
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        while self.rest.is_empty() {
            self.rest = self.segments.next()?;
        }
        // Each segment was cut to the frames `scan_segment` accepted, so
        // every header and body below is in bounds.
        let len = u32::from_le_bytes([self.rest[0], self.rest[1], self.rest[2], self.rest[3]]);
        let (payload, rest) = self.rest[8..].split_at(len as usize);
        self.rest = rest;
        Some(payload)
    }
}

/// Frames encoded back to back, ready for [`Wal::append_batch`]. Only
/// [`Batch::push`] writes it, so every frame in it is well formed.
#[derive(Debug, Default)]
pub struct Batch {
    buf: Vec<u8>,
}

impl Batch {
    /// Append one frame whose payload `encode` writes.
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        encode(&mut self.buf);
        let len = self.buf.len() - start - 8;
        if len == 0 || len > MAX_FRAME_PAYLOAD as usize {
            self.buf.truncate(start);
            return Err(StoreError::RecordTooLarge { len });
        }
        let crc = crc32(&self.buf[start + 8..]);
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }
}

impl Wal {
    /// Open (creating if needed) the log under `dir`: check every segment,
    /// repair a torn tail, then hand the valid frames to `replay`. Returns
    /// the writable log positioned after the last valid frame.
    ///
    /// Every segment is read before `replay` runs, so replay can hold
    /// frames from any segment until it is done; an error from `replay`
    /// is returned as is.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        replay: impl FnOnce(Frames<'_>) -> Result<()>,
    ) -> Result<(Wal, RecoveryReport)> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create wal dir", e))?;
        let paths = segment_paths(dir)?;
        let mut report = RecoveryReport { segments: paths.len() as u64, ..Default::default() };
        let mut segments = Vec::with_capacity(paths.len());
        let mut last: Option<(u64, u64)> = None; // (index, valid length)
        for (i, path) in paths.iter().enumerate() {
            let index = segment_index(path);
            let mut raw = std::fs::read(path)
                .map_err(|e| StoreError::io(&format!("read wal segment {index}"), e))?;
            let (valid_end, bad) = scan_segment(&raw, &mut report);
            if let Some(reason) = bad {
                let offset = valid_end as u64;
                if i + 1 != paths.len() {
                    // Damage before the final segment is not a crash tail.
                    return Err(StoreError::WalCorrupt { segment: index, offset, reason });
                }
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("open wal segment for repair", e))?;
                f.set_len(offset).map_err(|e| StoreError::io("truncate torn wal tail", e))?;
                f.sync_all().map_err(|e| StoreError::io("sync repaired wal segment", e))?;
                report.torn = Some((index, offset, reason));
                raw.truncate(valid_end);
            }
            last = Some((index, valid_end as u64));
            segments.push(raw);
        }
        replay(Frames { segments: segments.iter(), rest: &[] })?;
        let (cur_index, cur_size) = last.unwrap_or((0, 0));
        let cur_file = open_segment(&segment_path(dir, cur_index))?;
        if report.segments == 0 {
            report.segments = 1;
        }
        let wal = Wal { dir: dir.to_path_buf(), segment_bytes, cur_index, cur_file, cur_size };
        Ok((wal, report))
    }

    /// Append one frame. Rotates to a fresh segment first when the
    /// active one is full (the old segment is synced before rotation so
    /// rotation never un-settles data).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut batch = Batch::default();
        batch.push(|buf| buf.extend_from_slice(payload))?;
        self.append_batch(&batch)
    }

    /// Append every frame of `batch` in order, rotating exactly where
    /// frame-by-frame [`append`](Self::append) would, with one
    /// `write_all` per segment the batch touches.
    pub fn append_batch(&mut self, batch: &Batch) -> Result<()> {
        let buf = &batch.buf[..];
        // Frames `start..off` go to the active segment.
        let (mut start, mut off) = (0usize, 0usize);
        while off < buf.len() {
            let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            let frame_len = 8 + len as u64;
            let size = self.cur_size + (off - start) as u64;
            if size > 0 && size + frame_len > self.segment_bytes {
                self.write(&buf[start..off])?;
                self.sync()?;
                self.cur_index += 1;
                self.cur_file = open_segment(&segment_path(&self.dir, self.cur_index))?;
                self.cur_size = 0;
                start = off;
            }
            off += frame_len as usize;
        }
        self.write(&buf[start..])
    }

    fn write(&mut self, frames: &[u8]) -> Result<()> {
        if !frames.is_empty() {
            self.cur_file.write_all(frames).map_err(|e| StoreError::io("append wal frame", e))?;
            self.cur_size += frames.len() as u64;
        }
        Ok(())
    }

    /// Fsync the active segment — the durability point for everything
    /// appended so far.
    pub fn sync(&mut self) -> Result<()> {
        let _ph = cdb_obsv::profile::phase(cdb_obsv::profile::phases::WAL_FSYNC);
        self.cur_file.sync_all().map_err(|e| StoreError::io("sync wal segment", e))
    }

    /// Number of segments (index of the active segment + 1).
    pub fn segments(&self) -> u64 {
        self.cur_index + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn collect(dir: &Path, segment_bytes: u64) -> (Wal, Vec<Vec<u8>>, RecoveryReport) {
        let mut got = Vec::new();
        let (wal, report) = Wal::open(dir, segment_bytes, |frames| {
            got.extend(frames.map(<[u8]>::to_vec));
            Ok(())
        })
        .unwrap();
        (wal, got, report)
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let dir = ScratchDir::new("wal-empty");
        let (_, got, report) = collect(dir.path(), 1024);
        assert!(got.is_empty());
        assert_eq!(report.records, 0);
        assert!(report.torn.is_none());

        // A present-but-zero-length segment is equally fine.
        std::fs::write(segment_path(dir.path(), 0), b"").unwrap();
        let (_, got, report) = collect(dir.path(), 1024);
        assert!(got.is_empty());
        assert_eq!((report.segments, report.records), (1, 0));
        assert!(report.torn.is_none());
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = ScratchDir::new("wal-roundtrip");
        {
            let (mut wal, _, _) = collect(dir.path(), 1 << 16);
            wal.append(b"first").unwrap();
            wal.append(b"second, longer record").unwrap();
            wal.sync().unwrap();
        }
        let (mut wal, got, report) = collect(dir.path(), 1 << 16);
        assert_eq!(got, vec![b"first".to_vec(), b"second, longer record".to_vec()]);
        assert_eq!(report.records, 2);
        wal.append(b"third").unwrap();
        wal.sync().unwrap();
        let (_, got, _) = collect(dir.path(), 1 << 16);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn rotation_boundary_preserves_every_record() {
        let dir = ScratchDir::new("wal-rotate");
        // Each frame is 8 + 10 = 18 bytes; a 40-byte segment holds two.
        let (mut wal, _, _) = collect(dir.path(), 40);
        for i in 0..7u8 {
            wal.append(&[i; 10]).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.segments(), 4); // 2 + 2 + 2 + 1
        let (_, got, report) = collect(dir.path(), 40);
        assert_eq!(report.segments, 4);
        assert_eq!(got, (0..7u8).map(|i| vec![i; 10]).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = ScratchDir::new("wal-torn");
        {
            let (mut wal, _, _) = collect(dir.path(), 1 << 16);
            wal.append(b"committed").unwrap();
            wal.append(b"doomed-but-complete").unwrap();
            wal.sync().unwrap();
        }
        // Chop the last frame mid-payload, as a crash mid-write would.
        let path = segment_path(dir.path(), 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut wal, got, report) = collect(dir.path(), 1 << 16);
        assert_eq!(got, vec![b"committed".to_vec()]);
        let (seg, off, _) = report.torn.clone().unwrap();
        assert_eq!(seg, 0);
        assert_eq!(off, 8 + 9); // right after the surviving frame
                                // The tail was physically removed: appends resume cleanly.
        wal.append(b"after recovery").unwrap();
        wal.sync().unwrap();
        let (_, got, report) = collect(dir.path(), 1 << 16);
        assert_eq!(got, vec![b"committed".to_vec(), b"after recovery".to_vec()]);
        assert!(report.torn.is_none());
    }

    #[test]
    fn bitflip_in_tail_frame_is_a_torn_tail() {
        let dir = ScratchDir::new("wal-flip");
        {
            let (mut wal, _, _) = collect(dir.path(), 1 << 16);
            wal.append(b"alpha").unwrap();
            wal.append(b"omega").unwrap();
            wal.sync().unwrap();
        }
        let path = segment_path(dir.path(), 0);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let (_, got, report) = collect(dir.path(), 1 << 16);
        assert_eq!(got, vec![b"alpha".to_vec()]);
        assert!(report.torn.unwrap().2.contains("checksum"));
    }

    #[test]
    fn corruption_before_the_final_segment_is_fatal() {
        let dir = ScratchDir::new("wal-midrot");
        {
            let (mut wal, _, _) = collect(dir.path(), 40);
            for i in 0..5u8 {
                wal.append(&[i; 10]).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segments() > 1);
        }
        let first = segment_path(dir.path(), 0);
        let mut raw = std::fs::read(&first).unwrap();
        raw[10] ^= 0xFF;
        std::fs::write(&first, &raw).unwrap();
        let err = Wal::open(dir.path(), 40, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { segment: 0, .. }), "got {err:?}");
    }
}
