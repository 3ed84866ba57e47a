//! Durable tables: a `cdb-storage` database persisted as one snapshot
//! file.
//!
//! [`TableFile`] is the on-disk home of one [`cdb_storage::Database`]:
//! [`TableFile::open`] hands back the file handle *and* the catalog it
//! last committed, callers mutate that catalog like any other, and
//! [`TableFile::flush`] writes it back. There is one catalog type; the
//! handle only knows the file. The file holds exactly one snapshot:
//!
//! ```text
//! +-----------+---------+---------+----------------+-----------+
//! | magic u32 | seq u64 | len u64 | snapshot (len) | crc32 u32 |
//! +-----------+---------+---------+----------------+-----------+
//! ```
//!
//! `crc32` covers every byte before it. [`TableFile::flush`] writes the
//! new file under a temp name beside `<path>`, fsyncs it, renames it over
//! `<path>` and fsyncs the directory; the rename is the commit point. A
//! crash before it leaves the previous file live ([`TableFile::open`]
//! never reads the temp file), a committed file is never written in
//! place, and a file damaged at rest fails its length or checksum check
//! as [`StoreError::Decode`].
//!
//! Durability is *explicit*: mutations happen in memory at full speed
//! and [`TableFile::flush`] is the only fsync point, mirroring how the
//! answer log (not the table store) is the authority on crowd spend.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use cdb_storage::{ColumnDef, ColumnType, Database, Schema, Table, Value};

use crate::codec::{put_bool, put_f64, put_i64, put_str, put_u32, put_u64, put_u8_tag, Cursor};
use crate::crc::crc32;
use crate::error::{Result, StoreError};

const MAGIC: u32 = 0x4344_4253; // "CDBS"
/// `magic u32 | seq u64 | len u64`.
const HEADER: usize = 20;
/// `crc32 u32`.
const TRAILER: usize = 4;

const VAL_CNULL: u8 = 0;
const VAL_TEXT: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;

/// What one [`TableFile::flush`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Size of the committed file: header, snapshot and checksum.
    pub bytes: u64,
    /// The committed sequence number.
    pub seq: u64,
}

/// The file a [`cdb_storage::Database`] is flushed to and reopened from.
#[derive(Debug)]
pub struct TableFile {
    path: PathBuf,
    seq: u64,
}

impl TableFile {
    /// Open the table file at `path` and load its snapshot. A missing
    /// file is an empty catalog at seq 1, and nothing is written until
    /// the first [`TableFile::flush`].
    pub fn open(path: &Path) -> Result<(TableFile, Database)> {
        let (seq, db) = match std::fs::read(path) {
            Ok(raw) => {
                let (seq, snapshot) = unframe(&raw)?;
                (seq, decode_snapshot(snapshot)?)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (1, Database::new()),
            Err(e) => return Err(StoreError::io(&format!("read {}", path.display()), e)),
        };
        Ok((TableFile { path: path.to_path_buf(), seq }, db))
    }

    /// Write `db`'s tables to the file as a new snapshot and commit it.
    pub fn flush(&mut self, db: &Database) -> Result<FlushStats> {
        let seq = self.seq + 1;
        let raw = frame(seq, &encode_snapshot(db));
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut f = File::create(&tmp).map_err(|e| StoreError::io("create temp table file", e))?;
        f.write_all(&raw).map_err(|e| StoreError::io("write temp table file", e))?;
        f.sync_all().map_err(|e| StoreError::io("sync temp table file", e))?;
        // The commit point: the old file stays live until this rename.
        std::fs::rename(&tmp, &self.path).map_err(|e| StoreError::io("rename table file", e))?;
        let dir =
            self.path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StoreError::io("sync table file directory", e))?;
        self.seq = seq;
        Ok(FlushStats { bytes: raw.len() as u64, seq })
    }
}

/// The file image for `snapshot` at `seq`.
fn frame(seq: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + snapshot.len() + TRAILER);
    put_u32(&mut buf, MAGIC);
    put_u64(&mut buf, seq);
    put_u64(&mut buf, snapshot.len() as u64);
    buf.extend_from_slice(snapshot);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Verify a file image's magic, length and checksum; return its
/// `(seq, snapshot)`.
fn unframe(raw: &[u8]) -> Result<(u64, &[u8])> {
    let bad = |detail: String| StoreError::Decode { detail: format!("table file: {detail}") };
    if raw.len() < HEADER + TRAILER {
        return Err(bad(format!("{} bytes is shorter than header and checksum", raw.len())));
    }
    let mut c = Cursor::new(raw);
    if c.u32()? != MAGIC {
        return Err(bad("magic mismatch (not a table file)".into()));
    }
    let seq = c.u64()?;
    let (len, held) = (c.u64()?, raw.len() - HEADER - TRAILER);
    if len != held as u64 {
        return Err(bad(format!("header says {len} snapshot bytes, file holds {held}")));
    }
    let (body, trailer) = raw.split_at(HEADER + held);
    if Cursor::new(trailer).u32()? != crc32(body) {
        return Err(bad("checksum mismatch".into()));
    }
    Ok((seq, &body[HEADER..]))
}

fn encode_snapshot(db: &Database) -> Vec<u8> {
    let mut buf = Vec::new();
    let tables: Vec<&Table> = db.tables().collect();
    put_u32(&mut buf, tables.len() as u32);
    for t in tables {
        put_str(&mut buf, t.name());
        put_bool(&mut buf, t.is_crowd());
        let cols = t.schema().columns();
        put_u32(&mut buf, cols.len() as u32);
        for col in cols {
            put_str(&mut buf, &col.name);
            put_u8_tag(
                &mut buf,
                match col.ty {
                    ColumnType::Text => 0,
                    ColumnType::Int => 1,
                    ColumnType::Float => 2,
                },
            );
            put_bool(&mut buf, col.crowd);
        }
        put_u64(&mut buf, t.row_count() as u64);
        for row in t.rows() {
            for v in row {
                match v {
                    Value::CNull => put_u8_tag(&mut buf, VAL_CNULL),
                    Value::Text(s) => {
                        put_u8_tag(&mut buf, VAL_TEXT);
                        put_str(&mut buf, s);
                    }
                    Value::Int(i) => {
                        put_u8_tag(&mut buf, VAL_INT);
                        put_i64(&mut buf, *i);
                    }
                    Value::Float(f) => {
                        put_u8_tag(&mut buf, VAL_FLOAT);
                        put_f64(&mut buf, *f);
                    }
                }
            }
        }
    }
    buf
}

fn decode_snapshot(blob: &[u8]) -> Result<Database> {
    let mut db = Database::new();
    let mut c = Cursor::new(blob);
    let tables = c.u32()?;
    for _ in 0..tables {
        let name = c.str()?;
        let crowd = c.bool()?;
        let cols = c.u32()?;
        let mut defs = Vec::with_capacity(cols as usize);
        for _ in 0..cols {
            let col_name = c.str()?;
            let ty = match c.u8()? {
                0 => ColumnType::Text,
                1 => ColumnType::Int,
                2 => ColumnType::Float,
                t => return Err(StoreError::Decode { detail: format!("bad column type tag {t}") }),
            };
            let col_crowd = c.bool()?;
            defs.push(if col_crowd {
                ColumnDef::crowd(col_name, ty)
            } else {
                ColumnDef::new(col_name, ty)
            });
        }
        let arity = defs.len();
        let schema = Schema::new(defs);
        let mut table =
            if crowd { Table::new_crowd(name, schema) } else { Table::new(name, schema) };
        let rows = c.u64()?;
        for _ in 0..rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(match c.u8()? {
                    VAL_CNULL => Value::CNull,
                    VAL_TEXT => Value::Text(c.str()?.to_owned()),
                    VAL_INT => Value::Int(c.i64()?),
                    VAL_FLOAT => Value::Float(c.f64()?),
                    t => return Err(StoreError::Decode { detail: format!("bad value tag {t}") }),
                });
            }
            table.push(row)?;
        }
        db.add_table(table)?;
    }
    c.finish("snapshot")?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn sample_table(name: &str, rows: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::crowd("brand", ColumnType::Text),
            ColumnDef::new("price", ColumnType::Float),
        ]);
        let mut t = Table::new_crowd(name, schema);
        for i in 0..rows {
            let brand =
                if i % 3 == 0 { Value::CNull } else { Value::Text(format!("brand-{}", i % 7)) };
            t.push(vec![Value::Int(i as i64), brand, Value::Float(i as f64 * 0.5)]).unwrap();
        }
        t
    }

    #[test]
    fn open_flush_reopen_round_trips_tables() {
        let dir = ScratchDir::new("db-roundtrip");
        let path = dir.path().join("tables.cdb");
        let reference;
        {
            let (mut file, mut db) = TableFile::open(&path).unwrap();
            db.add_table(sample_table("products", 50)).unwrap();
            db.add_table(sample_table("reviews", 7)).unwrap();
            let stats = file.flush(&db).unwrap();
            assert_eq!(stats.bytes, std::fs::metadata(&path).unwrap().len());
            assert_eq!(stats.seq, 2);
            reference = encode_snapshot(&db);
        }
        let (_, db) = TableFile::open(&path).unwrap();
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.table("products").unwrap().row_count(), 50);
        assert_eq!(encode_snapshot(&db), reference);
    }

    #[test]
    fn unflushed_changes_do_not_survive() {
        let dir = ScratchDir::new("db-unflushed");
        let path = dir.path().join("tables.cdb");
        {
            let (mut file, mut db) = TableFile::open(&path).unwrap();
            db.add_table(sample_table("kept", 5)).unwrap();
            file.flush(&db).unwrap();
            db.add_table(sample_table("lost", 5)).unwrap();
            // no flush — a crash happens here
        }
        let (_, db) = TableFile::open(&path).unwrap();
        assert!(db.contains_table("kept"));
        assert!(!db.contains_table("lost"));
    }

    #[test]
    fn repeated_flushes_keep_one_snapshot_and_bump_seq() {
        let dir = ScratchDir::new("db-reflush");
        let path = dir.path().join("tables.cdb");
        let (mut file, mut db) = TableFile::open(&path).unwrap();
        db.add_table(sample_table("t", 200)).unwrap();
        let mut seq = file.flush(&db).unwrap().seq;
        for i in 0..5 {
            db.table_mut("t")
                .unwrap()
                .set_cell(0, "brand", Value::Text(format!("updated-{i}")))
                .unwrap();
            let s = file.flush(&db).unwrap();
            assert_eq!(s.seq, seq + 1);
            seq = s.seq;
            assert_eq!(std::fs::metadata(&path).unwrap().len(), s.bytes);
        }
        // One snapshot, one file: no temp file or older image is left.
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1);
        let (_, db) = TableFile::open(&path).unwrap();
        assert_eq!(
            db.table("t").unwrap().cell(0, "brand").unwrap(),
            &Value::Text("updated-4".into())
        );
    }

    fn flip(mut raw: Vec<u8>, at: usize) -> Vec<u8> {
        raw[at] ^= 0xFF;
        raw
    }

    /// Every state a crash or damage at rest can leave beside a committed
    /// `v1` snapshot, given `v1`'s file image and the complete image the
    /// next flush (adding `v2`) would have renamed over it. Each case
    /// yields the `(file, temp file)` left on disk and whether reopening
    /// must recover `v1` (`true`) or fail with a typed decode error.
    #[test]
    fn crash_states_reopen_to_the_previous_snapshot_or_a_decode_error() {
        type Case = (&'static str, fn(Vec<u8>, Vec<u8>) -> (Vec<u8>, Option<Vec<u8>>), bool);
        let cases: [Case; 9] = [
            ("garbage temp file", |f, _| (f, Some(b"\xde\xad\xbe\xef torn".to_vec())), true),
            ("half-written temp file", |f, n| (f, Some(n[..n.len() / 2].to_vec())), true),
            ("complete but unrenamed temp file", |f, n| (f, Some(n)), true),
            ("header byte flipped", |f, _| (flip(f, 5), None), false),
            ("body byte flipped", |f, _| (flip(f, HEADER + 3), None), false),
            ("trailer byte flipped", |f, _| (flip(f.clone(), f.len() - 2), None), false),
            ("cut by one byte", |f, _| (f[..f.len() - 1].to_vec(), None), false),
            ("cut to zero bytes", |_, _| (Vec::new(), None), false),
            ("foreign file", |_, _| (b"#!/bin/sh\necho not a table file\n".to_vec(), None), false),
        ];
        for (name, damage, recovers) in cases {
            let dir = ScratchDir::new("db-crash");
            let path = dir.path().join("tables.cdb");
            let tmp = dir.path().join("tables.cdb.tmp");
            let (mut file, mut db) = TableFile::open(&path).unwrap();
            db.add_table(sample_table("v1", 3)).unwrap();
            file.flush(&db).unwrap();
            let committed = std::fs::read(&path).unwrap();
            db.add_table(sample_table("v2", 3)).unwrap();
            let next = frame(3, &encode_snapshot(&db));

            let (on_disk, temp) = damage(committed, next);
            std::fs::write(&path, on_disk).unwrap();
            if let Some(temp) = temp {
                std::fs::write(&tmp, temp).unwrap();
            }
            match TableFile::open(&path) {
                Ok((mut file, reopened)) if recovers => {
                    assert!(reopened.contains_table("v1"), "{name}");
                    assert!(!reopened.contains_table("v2"), "{name}");
                    assert_eq!(file.flush(&db).unwrap().seq, 3, "{name}");
                    assert!(TableFile::open(&path).unwrap().1.contains_table("v2"), "{name}");
                    assert!(!tmp.exists(), "{name}");
                }
                Err(StoreError::Decode { .. }) if !recovers => {}
                other => panic!("{name}: unexpected reopen {other:?}"),
            }
        }

        // A missing path is an empty catalog, and opening writes nothing.
        let dir = ScratchDir::new("db-missing");
        let path = dir.path().join("tables.cdb");
        let (mut file, db) = TableFile::open(&path).unwrap();
        assert_eq!(db.table_count(), 0);
        assert!(!path.exists());
        assert_eq!(file.flush(&db).unwrap().seq, 2);
        assert!(path.exists());
    }

    #[test]
    fn empty_database_round_trips() {
        let dir = ScratchDir::new("db-empty");
        let path = dir.path().join("tables.cdb");
        {
            let (mut file, db) = TableFile::open(&path).unwrap();
            file.flush(&db).unwrap();
        }
        let (_, db) = TableFile::open(&path).unwrap();
        assert_eq!(db.table_count(), 0);
    }
}
