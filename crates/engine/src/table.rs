//! Heap-table storage: pages, a row-id directory and a primary-key index.

use std::collections::{BTreeMap, HashMap};

use resildb_sim::{PageKey, SimContext};

use crate::error::{EngineError, Result};
use crate::page::{Page, Slot};
use crate::row::{decode_row, encode_row, Row, RowId};
use crate::schema::TableSchema;
use crate::value::Value;

/// Physical location of a row operation, recorded into the WAL exactly the
/// way the paper's DBMSs log it: logical page number + offset within page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLocation {
    /// Page number within the table's heap.
    pub page: u64,
    /// Byte offset within the page *at the time of the operation*.
    pub offset: usize,
    /// Row image length in bytes.
    pub len: usize,
}

/// A heap table: schema + pages + indexes.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    /// Object id used for buffer-pool page keys.
    object_id: u32,
    pages: Vec<Page>,
    /// RowId → page number (offsets live in the page's slot directory).
    directory: HashMap<RowId, u64>,
    /// Order-preserving serialized PK → RowId (only when the schema has a
    /// primary key). Ordered so equality on a key *prefix* can be served
    /// as a range scan — the access path TPC-C's district-scoped queries
    /// rely on.
    pk_index: BTreeMap<Vec<u8>, RowId>,
    next_rowid: u64,
    next_identity: i64,
    row_count: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema, object_id: u32) -> Self {
        Self {
            schema,
            object_id,
            pages: Vec::new(),
            directory: HashMap::new(),
            pk_index: BTreeMap::new(),
            next_rowid: 1,
            next_identity: 1,
            row_count: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The buffer-pool object id.
    pub fn object_id(&self) -> u32 {
        self.object_id
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Serialises the primary-key values of `row` into an index key.
    /// Returns `None` when the table has no primary key.
    fn pk_key(&self, row: &Row) -> Option<Vec<u8>> {
        if self.schema.primary_key.is_empty() {
            return None;
        }
        let mut key = Vec::new();
        for &i in &self.schema.primary_key {
            encode_key_part(&row.0[i], &mut key);
        }
        Some(key)
    }

    /// Serialises a caller-supplied key-value list (in PK column order)
    /// with the same order-preserving encoding the index uses.
    pub fn pk_key_for(&self, values: &[Value]) -> Vec<u8> {
        let mut key = Vec::new();
        for v in values {
            encode_key_part(v, &mut key);
        }
        key
    }

    /// Looks up a row id by full primary key values (in PK column order).
    pub fn lookup_pk(&self, values: &[Value]) -> Option<RowId> {
        self.pk_index.get(&self.pk_key_for(values)).copied()
    }

    /// All row ids whose primary key starts with `values` (a prefix of the
    /// PK columns, in key order) — an index range scan.
    pub fn lookup_pk_prefix(&self, values: &[Value]) -> Vec<RowId> {
        let prefix = self.pk_key_for(values);
        self.pk_index
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, rid)| *rid)
            .collect()
    }

    /// Validates NOT NULL constraints and fills the identity column when
    /// its value is absent/NULL. Returns the (possibly modified) row.
    fn prepare_insert(&mut self, mut row: Row) -> Result<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(EngineError::Constraint(format!(
                "INSERT supplies {} values for {} columns of {}",
                row.len(),
                self.schema.columns.len(),
                self.schema.name
            )));
        }
        if let Some(idx) = self.schema.identity_column() {
            if row.0[idx].is_null() {
                row.0[idx] = Value::Int(self.next_identity);
                self.next_identity += 1;
            } else if let Value::Int(v) = row.0[idx] {
                self.next_identity = self.next_identity.max(v + 1);
            }
        }
        for (col, v) in self.schema.columns.iter().zip(row.values()) {
            if col.not_null && v.is_null() {
                return Err(EngineError::Constraint(format!(
                    "column {}.{} is NOT NULL",
                    self.schema.name, col.name
                )));
            }
        }
        // Coerce values to column storage types.
        let coerced: Result<Vec<Value>> = self
            .schema
            .columns
            .iter()
            .zip(row.0)
            .map(|(c, v)| v.coerce_to(c.ty))
            .collect();
        Ok(Row(coerced?))
    }

    /// Inserts `row`, returning its new id, the row as actually stored
    /// (identity filled, values coerced) and its physical location.
    ///
    /// Charges one page write to `sim`.
    ///
    /// # Errors
    ///
    /// Constraint violations (arity, NOT NULL, duplicate key) and encoding
    /// failures.
    pub fn insert(&mut self, row: Row, sim: &SimContext) -> Result<(RowId, Row, RowLocation)> {
        let row = self.prepare_insert(row)?;
        if let Some(key) = self.pk_key(&row) {
            if self.pk_index.contains_key(&key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, &row)?;
        let rowid = RowId(self.next_rowid);
        self.next_rowid += 1;
        // Find a page with space (last page first — heap append behaviour).
        let page_no = match self.pages.last() {
            Some(p) if p.free_space() >= image.len() => self.pages.len() as u64 - 1,
            _ => {
                self.pages.push(Page::new());
                self.pages.len() as u64 - 1
            }
        };
        let offset = self.pages[page_no as usize].insert(rowid, &image);
        self.directory.insert(rowid, page_no);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok((
            rowid,
            row,
            RowLocation {
                page: page_no,
                offset,
                len: image.len(),
            },
        ))
    }

    /// Re-inserts a row under a *specific* row id — used by transaction
    /// rollback and crash recovery, where the original identity of the row
    /// must be preserved (unlike SQL-level compensation, which deliberately
    /// goes through [`Self::insert`] and gets a fresh id, exercising the
    /// paper's row-id remapping).
    ///
    /// # Errors
    ///
    /// Fails if `rowid` is already live or the primary key collides.
    pub fn insert_with_rowid(
        &mut self,
        rowid: RowId,
        row: Row,
        sim: &SimContext,
    ) -> Result<RowLocation> {
        if self.directory.contains_key(&rowid) {
            return Err(EngineError::Internal(format!("{rowid} already live")));
        }
        if let Some(key) = self.pk_key(&row) {
            if self.pk_index.contains_key(&key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, &row)?;
        self.next_rowid = self.next_rowid.max(rowid.0 + 1);
        if let Some(idx) = self.schema.identity_column() {
            if let Some(Value::Int(v)) = row.get(idx) {
                self.next_identity = self.next_identity.max(v + 1);
            }
        }
        let page_no = match self.pages.last() {
            Some(p) if p.free_space() >= image.len() => self.pages.len() as u64 - 1,
            _ => {
                self.pages.push(Page::new());
                self.pages.len() as u64 - 1
            }
        };
        let offset = self.pages[page_no as usize].insert(rowid, &image);
        self.directory.insert(rowid, page_no);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(RowLocation {
            page: page_no,
            offset,
            len: image.len(),
        })
    }

    /// Restores a deleted row at the *exact* physical location it occupied
    /// before the delete — the rollback path. Unlike
    /// [`Self::insert_with_rowid`], which appends to the last page, this
    /// splices the image back where it was so an aborted transaction's
    /// page churn is fully reversed. Required by the Sybase repair
    /// algorithm (paper §4.3): it resolves logged offsets against the
    /// current page, and a rolled-back transaction — which left no log
    /// records — must therefore leave no physical footprint either.
    ///
    /// # Errors
    ///
    /// Fails if `rowid` is already live, the primary key collides, the
    /// image width differs from the recorded slot, or `loc` no longer
    /// names a valid splice point.
    pub fn restore_at(
        &mut self,
        rowid: RowId,
        row: Row,
        loc: RowLocation,
        sim: &SimContext,
    ) -> Result<()> {
        if self.directory.contains_key(&rowid) {
            return Err(EngineError::Internal(format!("{rowid} already live")));
        }
        if let Some(key) = self.pk_key(&row) {
            if self.pk_index.contains_key(&key) {
                return Err(EngineError::DuplicateKey(format!(
                    "{} primary key {key:?}",
                    self.schema.name
                )));
            }
        }
        let image = encode_row(&self.schema, &row)?;
        if image.len() != loc.len {
            return Err(EngineError::Internal(format!(
                "restore_at image width {} != recorded {}",
                image.len(),
                loc.len
            )));
        }
        let page = self
            .pages
            .get_mut(loc.page as usize)
            .ok_or_else(|| EngineError::Internal(format!("restore_at page {} gone", loc.page)))?;
        page.insert_at(rowid, &image, loc.offset);
        self.next_rowid = self.next_rowid.max(rowid.0 + 1);
        self.directory.insert(rowid, loc.page);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rowid);
        }
        self.row_count += 1;
        sim.charge_page_write(PageKey::new(self.object_id, loc.page));
        Ok(())
    }

    /// Reads the current contents of `rowid` (charging a page read).
    pub fn get(&self, rowid: RowId, sim: &SimContext) -> Result<Option<Row>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        sim.charge_page_read(PageKey::new(self.object_id, page_no));
        let page = &self.pages[page_no as usize];
        let Some(image) = page.image_of(rowid) else {
            return Ok(None);
        };
        decode_row(&self.schema, image).map(Some)
    }

    /// Deletes `rowid`, returning the deleted row and the location it
    /// occupied. Later rows in the page migrate down (Sybase rule).
    pub fn delete(&mut self, rowid: RowId, sim: &SimContext) -> Result<Option<(Row, RowLocation)>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        let page = &mut self.pages[page_no as usize];
        let image = page
            .image_of(rowid)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?
            .to_vec();
        let row = decode_row(&self.schema, &image)?;
        let slot: Slot = page
            .delete(rowid)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?;
        self.directory.remove(&rowid);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.remove(&key);
        }
        self.row_count -= 1;
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(Some((
            row,
            RowLocation {
                page: page_no,
                offset: slot.offset,
                len: slot.len,
            },
        )))
    }

    /// Replaces `rowid`'s contents with `new_row` (same schema width, so
    /// strictly in place). Returns `(old_row, stored_new_row, location)`.
    pub fn update(
        &mut self,
        rowid: RowId,
        new_row: Row,
        sim: &SimContext,
    ) -> Result<Option<(Row, Row, RowLocation)>> {
        let Some(&page_no) = self.directory.get(&rowid) else {
            return Ok(None);
        };
        let new_row = {
            // Re-run constraint checks (arity/NOT NULL/coercion).
            let coerced: Result<Vec<Value>> = self
                .schema
                .columns
                .iter()
                .zip(new_row.0)
                .map(|(c, v)| {
                    if c.not_null && v.is_null() {
                        Err(EngineError::Constraint(format!(
                            "column {}.{} is NOT NULL",
                            self.schema.name, c.name
                        )))
                    } else {
                        v.coerce_to(c.ty)
                    }
                })
                .collect();
            Row(coerced?)
        };
        let page = &mut self.pages[page_no as usize];
        let old_image = page
            .image_of(rowid)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?
            .to_vec();
        let old_row = decode_row(&self.schema, &old_image)?;
        // Maintain the PK index if key columns changed.
        let old_key = self.pk_key(&old_row);
        let new_key = self.pk_key(&new_row);
        if old_key != new_key {
            if let Some(nk) = &new_key {
                if self.pk_index.contains_key(nk) {
                    return Err(EngineError::DuplicateKey(format!(
                        "{} primary key {nk:?}",
                        self.schema.name
                    )));
                }
            }
        }
        let image = encode_row(&self.schema, &new_row)?;
        let page = &mut self.pages[page_no as usize];
        let slot = page
            .update(rowid, &image)
            .ok_or_else(|| EngineError::Internal(format!("directory stale for {rowid}")))?;
        if old_key != new_key {
            if let Some(ok) = old_key {
                self.pk_index.remove(&ok);
            }
            if let Some(nk) = new_key {
                self.pk_index.insert(nk, rowid);
            }
        }
        sim.charge_page_write(PageKey::new(self.object_id, page_no));
        Ok(Some((
            old_row,
            new_row,
            RowLocation {
                page: page_no,
                offset: slot.offset,
                len: slot.len,
            },
        )))
    }

    /// Scans all rows in storage order, charging one page read per page.
    /// The callback receives `(rowid, row)`.
    pub fn scan(
        &self,
        sim: &SimContext,
        mut f: impl FnMut(RowId, Row) -> Result<()>,
    ) -> Result<()> {
        for (page_no, page) in self.pages.iter().enumerate() {
            if page.row_count() == 0 {
                continue;
            }
            sim.charge_page_read(PageKey::new(self.object_id, page_no as u64));
            for slot in page.slots() {
                let image = page
                    .read_at(slot.offset, slot.len)
                    .ok_or_else(|| EngineError::Internal("corrupt slot".into()))?;
                f(slot.rowid, decode_row(&self.schema, image)?)?;
            }
        }
        Ok(())
    }

    /// Reads raw bytes from a page — the `dbcc page` primitive used by the
    /// Sybase-flavor repair path.
    pub fn read_page_bytes(&self, page: u64, offset: usize, len: usize) -> Option<&[u8]> {
        self.pages.get(page as usize)?.read_at(offset, len)
    }
}

/// Appends an order-preserving encoding of `v`: byte-wise comparison of
/// encoded keys matches SQL value ordering within each type (type tags
/// keep mixed-type keys from colliding).
fn encode_key_part(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Float(f) => {
            out.push(0x02);
            let bits = f.to_bits();
            let ordered = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Value::Bool(b) => {
            out.push(0x03);
            out.push(u8::from(*b));
        }
        Value::Str(s) => {
            out.push(0x04);
            out.extend_from_slice(s.as_bytes());
            out.push(0x00);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(sql: &str) -> Table {
        let stmt = resildb_sql::parse_statement(sql).unwrap();
        let resildb_sql::Statement::CreateTable(c) = stmt else {
            unreachable!()
        };
        Table::new(TableSchema::from_create(&c).unwrap(), 7)
    }

    fn sim() -> SimContext {
        SimContext::free()
    }

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn insert_get_round_trip() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8))");
        let s = sim();
        let (rid, _, loc) = t
            .insert(row(vec![Value::Int(1), Value::from("x")]), &s)
            .unwrap();
        assert_eq!(loc.page, 0);
        assert_eq!(loc.offset, 0);
        let got = t.get(rid, &s).unwrap().unwrap();
        assert_eq!(got.0, vec![Value::Int(1), Value::from("x")]);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY)");
        let s = sim();
        t.insert(row(vec![Value::Int(1)]), &s).unwrap();
        let err = t.insert(row(vec![Value::Int(1)]), &s).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey(_)));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table("CREATE TABLE t (a INTEGER NOT NULL)");
        let err = t.insert(row(vec![Value::Null]), &sim()).unwrap_err();
        assert!(matches!(err, EngineError::Constraint(_)));
    }

    #[test]
    fn identity_fills_and_advances() {
        let mut t = table("CREATE TABLE t (a INTEGER, rid INTEGER IDENTITY)");
        let s = sim();
        let (r1, _, _) = t
            .insert(row(vec![Value::Int(10), Value::Null]), &s)
            .unwrap();
        let (r2, _, _) = t
            .insert(row(vec![Value::Int(20), Value::Null]), &s)
            .unwrap();
        assert_eq!(t.get(r1, &s).unwrap().unwrap().0[1], Value::Int(1));
        assert_eq!(t.get(r2, &s).unwrap().unwrap().0[1], Value::Int(2));
        // Explicit value bumps the counter past itself.
        t.insert(row(vec![Value::Int(30), Value::Int(10)]), &s)
            .unwrap();
        let (r4, _, _) = t
            .insert(row(vec![Value::Int(40), Value::Null]), &s)
            .unwrap();
        assert_eq!(t.get(r4, &s).unwrap().unwrap().0[1], Value::Int(11));
    }

    #[test]
    fn update_in_place_and_pk_reindex() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8))");
        let s = sim();
        let (rid, _, loc0) = t
            .insert(row(vec![Value::Int(1), Value::from("x")]), &s)
            .unwrap();
        let (old, new, loc1) = t
            .update(rid, row(vec![Value::Int(2), Value::from("y")]), &s)
            .unwrap()
            .unwrap();
        assert_eq!(new.0[0], Value::Int(2));
        assert_eq!(old.0[0], Value::Int(1));
        assert_eq!(loc0, loc1, "update is strictly in place");
        assert_eq!(t.lookup_pk(&[Value::Int(2)]), Some(rid));
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), None);
    }

    #[test]
    fn delete_returns_old_row_and_updates_indexes() {
        let mut t = table("CREATE TABLE t (a INTEGER PRIMARY KEY)");
        let s = sim();
        let (rid, _, _) = t.insert(row(vec![Value::Int(5)]), &s).unwrap();
        let (deleted, _) = t.delete(rid, &s).unwrap().unwrap();
        assert_eq!(deleted.0[0], Value::Int(5));
        assert!(t.get(rid, &s).unwrap().is_none());
        assert_eq!(t.lookup_pk(&[Value::Int(5)]), None);
        assert_eq!(t.row_count(), 0);
        assert!(t.delete(rid, &s).unwrap().is_none());
    }

    #[test]
    fn rows_spill_onto_new_pages() {
        let mut t = table("CREATE TABLE t (a INTEGER, b VARCHAR(200))");
        let s = sim();
        // Each row ~220 bytes; 8K page holds ~37.
        for i in 0..100 {
            t.insert(row(vec![Value::Int(i), Value::from("p")]), &s)
                .unwrap();
        }
        assert!(t.page_count() >= 2, "pages: {}", t.page_count());
        let mut seen = 0;
        t.scan(&s, |_, _| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 100);
    }

    #[test]
    fn scan_charges_page_reads() {
        let mut t = table("CREATE TABLE t (a INTEGER)");
        let s = SimContext::new(resildb_sim::CostModel::disk_bound_oltp(), 64);
        t.insert(row(vec![Value::Int(1)]), &s).unwrap();
        let misses_before = s.stats().page_misses.get() + s.stats().page_hits.get();
        t.scan(&s, |_, _| Ok(())).unwrap();
        assert!(s.stats().page_misses.get() + s.stats().page_hits.get() > misses_before);
    }

    #[test]
    fn pk_prefix_lookup_returns_matching_rows_only() {
        let mut t =
            table("CREATE TABLE ol (w INTEGER, d INTEGER, o INTEGER, PRIMARY KEY (w, d, o))");
        let s = sim();
        for w in 1..=2 {
            for d in 1..=3 {
                for o in 1..=4 {
                    t.insert(row(vec![Value::Int(w), Value::Int(d), Value::Int(o)]), &s)
                        .unwrap();
                }
            }
        }
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(1)]).len(), 12);
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(2), Value::Int(3)]).len(), 4);
        assert_eq!(
            t.lookup_pk_prefix(&[Value::Int(2), Value::Int(3), Value::Int(4)])
                .len(),
            1
        );
        assert!(t.lookup_pk_prefix(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn pk_prefix_lookup_is_not_fooled_by_numeric_text_ordering() {
        // "10" < "9" lexicographically; the order-preserving encoding must
        // not mix id 1 prefixes into id 10, etc.
        let mut t = table("CREATE TABLE t2 (a INTEGER, b INTEGER, PRIMARY KEY (a, b))");
        let s = sim();
        for a in [1, 9, 10, 100] {
            t.insert(row(vec![Value::Int(a), Value::Int(1)]), &s)
                .unwrap();
        }
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(1)]).len(), 1);
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(10)]).len(), 1);
        // Negative keys order below positive ones.
        t.insert(row(vec![Value::Int(-5), Value::Int(1)]), &s)
            .unwrap();
        assert_eq!(t.lookup_pk_prefix(&[Value::Int(-5)]).len(), 1);
    }

    #[test]
    fn dbcc_style_page_read() {
        let mut t = table("CREATE TABLE t (a INTEGER)");
        let s = sim();
        let (_, _, loc) = t.insert(row(vec![Value::Int(9)]), &s).unwrap();
        let bytes = t.read_page_bytes(loc.page, loc.offset, loc.len).unwrap();
        let decoded = decode_row(t.schema(), bytes).unwrap();
        assert_eq!(decoded.0[0], Value::Int(9));
    }
}
