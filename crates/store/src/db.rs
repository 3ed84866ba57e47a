//! Durable tables: a `cdb-storage` database persisted through the paged
//! store.
//!
//! [`TableFile`] is the on-disk home of one [`cdb_storage::Database`]:
//! [`TableFile::open`] hands back the file handle *and* the catalog it
//! last committed, callers mutate that catalog like any other, and
//! [`TableFile::flush`] writes it back. There is one catalog type; the
//! handle only knows the file. The file layout:
//!
//! * **Pages 0 and 1** are *double-buffered meta pages*. Each holds one
//!   record `(magic, seq, catalog RecordId)`; the valid page with the
//!   higher `seq` names the live snapshot. [`TableFile::flush`] writes a
//!   complete new snapshot onto pages the live snapshot does **not**
//!   use, fsyncs it, and only then overwrites the *stale* meta slot with
//!   `seq + 1` and fsyncs again. A crash at any point leaves the old
//!   meta slot naming the old, fully-intact snapshot — the flush is
//!   atomic at page-checksum granularity.
//! * **Pages ≥ 2** hold snapshot data as chained slotted records (see
//!   [`crate::pager::BufferPool::write_chain`]); pages freed by a
//!   superseded snapshot are reused by the next flush.
//!
//! Durability is *explicit*: mutations happen in memory at full speed
//! and [`TableFile::flush`] is the only fsync point, mirroring how the
//! answer log (not the table store) is the authority on crowd spend.

use std::path::Path;

use cdb_storage::{ColumnDef, ColumnType, Database, Schema, Table, Value};

use crate::codec::{put_bool, put_f64, put_i64, put_str, put_u32, put_u64, put_u8_tag, Cursor};
use crate::error::{Result, StoreError};
use crate::page::Page;
use crate::pager::{BufferPool, Pager, RecordId};

const MAGIC: u32 = 0x4344_4253; // "CDBS"
const META_PAGES: u32 = 2;
const POOL_CAPACITY: usize = 64;

const VAL_CNULL: u8 = 0;
const VAL_TEXT: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;

/// What one [`TableFile::flush`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Snapshot pages the new catalog chain occupies.
    pub pages: u32,
    /// Encoded snapshot size in bytes.
    pub bytes: u64,
    /// The committed meta sequence number.
    pub seq: u64,
}

/// The file a [`cdb_storage::Database`] is flushed to and reopened from.
#[derive(Debug)]
pub struct TableFile {
    pool: BufferPool,
    seq: u64,
    meta_slot: u32,
    catalog: RecordId,
}

impl TableFile {
    /// Open (creating if absent) the table file at `path` and load the
    /// last flushed snapshot — an empty catalog for a fresh file.
    pub fn open(path: &Path) -> Result<(TableFile, Database)> {
        let mut pool = BufferPool::new(Pager::open(path)?, POOL_CAPACITY);
        if pool.page_count() == 0 {
            // Fresh file: lay down both meta slots; slot 0 (seq 1, empty
            // catalog) is live, slot 1 (seq 0) is the first flush target.
            for no in 0..META_PAGES {
                let got = pool.allocate()?;
                debug_assert_eq!(got, no);
                let page = pool.page_mut(no).expect("fresh meta page resident");
                let seq = if no == 0 { 1 } else { 0 };
                page.insert(&encode_meta(seq, RecordId { page: 0, slot: 0 }))?;
                pool.unpin(no, true);
            }
            pool.flush()?;
            let file =
                TableFile { pool, seq: 1, meta_slot: 0, catalog: RecordId { page: 0, slot: 0 } };
            return Ok((file, Database::new()));
        }

        // Existing file: the valid meta slot with the highest seq names
        // the live snapshot. One slot failing its checksum is the
        // expected signature of a crash mid-meta-write — not an error.
        let mut best: Option<(u32, u64, RecordId)> = None;
        for no in 0..META_PAGES.min(pool.page_count()) {
            match pool.pin(no) {
                Ok(()) => {
                    let page = pool.page(no).expect("pinned meta page resident");
                    if let Ok((seq, catalog)) = decode_meta(page) {
                        if best.map(|(_, s, _)| seq > s).unwrap_or(true) {
                            best = Some((no, seq, catalog));
                        }
                    }
                    pool.unpin(no, false);
                }
                Err(StoreError::PageChecksum { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        let (meta_slot, seq, catalog) = best.ok_or(StoreError::NoValidMeta)?;
        let db = if catalog.page == 0 {
            Database::new()
        } else {
            let blob = pool.read_chain(catalog)?;
            decode_snapshot(&blob)?
        };
        Ok((TableFile { pool, seq, meta_slot, catalog }, db))
    }

    /// Write `db`'s tables to the file as a new snapshot and commit it.
    pub fn flush(&mut self, db: &Database) -> Result<FlushStats> {
        let blob = encode_snapshot(db);

        // Pages the live snapshot still needs; everything else past the
        // meta pages is scratch for the new one.
        let mut live = vec![false; self.pool.page_count() as usize];
        if self.catalog.page != 0 {
            for no in self.pool.chain_pages(self.catalog)? {
                live[no as usize] = true;
            }
        }
        let mut free: Vec<u32> =
            (META_PAGES..self.pool.page_count()).filter(|&no| !live[no as usize]).rev().collect();

        let new_catalog = self.pool.write_chain(&mut free, &blob)?;
        let pages = self.pool.chain_pages(new_catalog)?.len() as u32;
        self.pool.flush()?; // snapshot durable before the meta flip

        let stale = 1 - self.meta_slot;
        let seq = self.seq + 1;
        self.pool.pin(stale)?;
        {
            let page = self.pool.page_mut(stale).expect("pinned meta page resident");
            *page = Page::new(stale);
            page.insert(&encode_meta(seq, new_catalog))?;
        }
        self.pool.unpin(stale, true);
        self.pool.flush()?; // the commit point

        self.seq = seq;
        self.meta_slot = stale;
        self.catalog = new_catalog;
        Ok(FlushStats { pages, bytes: blob.len() as u64, seq })
    }
}

fn encode_meta(seq: u64, catalog: RecordId) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18);
    put_u32(&mut buf, MAGIC);
    put_u64(&mut buf, seq);
    put_u32(&mut buf, catalog.page);
    buf.extend_from_slice(&catalog.slot.to_le_bytes());
    buf
}

fn decode_meta(page: &Page) -> Result<(u64, RecordId)> {
    let rec = page.record(0)?;
    let mut c = Cursor::new(rec);
    if c.u32()? != MAGIC {
        return Err(StoreError::Decode { detail: "meta page magic mismatch".into() });
    }
    let seq = c.u64()?;
    let catalog = RecordId { page: c.u32()?, slot: c.u16()? };
    Ok((seq, catalog))
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
            if crowd { Table::new_crowd(&name, schema) } else { Table::new(&name, schema) };
        let rows = c.u64()?;
        for _ in 0..rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(match c.u8()? {
                    VAL_CNULL => Value::CNull,
                    VAL_TEXT => Value::Text(c.str()?),
                    VAL_INT => Value::Int(c.i64()?),
                    VAL_FLOAT => Value::Float(c.f64()?),
                    t => return Err(StoreError::Decode { detail: format!("bad value tag {t}") }),
                });
            }
            table.push(row)?;
        }
        db.add_table(table)?;
    }
    if !c.is_empty() {
        return Err(StoreError::Decode {
            detail: format!("{} trailing bytes after snapshot", c.remaining()),
        });
    }
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
            assert!(stats.pages >= 1);
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
    fn repeated_flushes_reuse_pages_and_bump_seq() {
        let dir = ScratchDir::new("db-reflush");
        let path = dir.path().join("tables.cdb");
        let (mut file, mut db) = TableFile::open(&path).unwrap();
        db.add_table(sample_table("t", 200)).unwrap();
        let first = file.flush(&db).unwrap();
        let mut sizes = Vec::new();
        for i in 0..5 {
            db.table_mut("t")
                .unwrap()
                .set_cell(0, "brand", Value::Text(format!("updated-{i}")))
                .unwrap();
            let s = file.flush(&db).unwrap();
            assert_eq!(s.seq, first.seq + 1 + i);
            sizes.push(std::fs::metadata(&path).unwrap().len());
        }
        // Steady-state: two snapshots' worth of pages ping-pong; the file
        // stops growing after the second flush.
        assert_eq!(sizes[1], sizes[4]);
        let (_, db) = TableFile::open(&path).unwrap();
        assert_eq!(
            db.table("t").unwrap().cell(0, "brand").unwrap(),
            &Value::Text("updated-4".into())
        );
    }

    #[test]
    fn torn_meta_write_falls_back_to_previous_snapshot() {
        let dir = ScratchDir::new("db-tornmeta");
        let path = dir.path().join("tables.cdb");
        let meta_slot;
        {
            let (mut file, mut db) = TableFile::open(&path).unwrap();
            db.add_table(sample_table("v1", 3)).unwrap();
            file.flush(&db).unwrap();
            db.add_table(sample_table("v2", 3)).unwrap();
            file.flush(&db).unwrap();
            meta_slot = file.meta_slot;
        }
        // Corrupt the *live* meta page, as a torn meta write would: the
        // other slot (previous snapshot) must take over.
        let mut raw = std::fs::read(&path).unwrap();
        let off = meta_slot as usize * crate::page::PAGE_SIZE + 20;
        raw[off] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, db) = TableFile::open(&path).unwrap();
        assert!(db.contains_table("v1"));
        assert!(!db.contains_table("v2"));

        // Destroying both meta slots is unrecoverable — and loud. (A
        // fresh byte offset, so the earlier flip is not undone.)
        let mut raw = std::fs::read(&path).unwrap();
        for slot in 0..2usize {
            raw[slot * crate::page::PAGE_SIZE + 21] ^= 0xFF;
        }
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(TableFile::open(&path).unwrap_err(), StoreError::NoValidMeta);
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
