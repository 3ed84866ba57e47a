//! Row-oriented tables.

use crate::{ColumnType, Schema, StorageError, Value};

/// Identifies a tuple inside a [`crate::Database`]: `(table name, row)`.
///
/// The CDB graph query model creates one graph vertex per tuple; `TupleId`
/// is the link from graph vertices back to stored rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Owning table name.
    pub table: String,
    /// Zero-based row index.
    pub row: usize,
}

impl TupleId {
    /// Construct a tuple id.
    pub fn new(table: impl Into<String>, row: usize) -> Self {
        TupleId { table: table.into(), row }
    }
}

/// A named, schema-checked, row-oriented table.
///
/// A table may itself be a `CROWD` table (CQL `CREATE CROWD TABLE`): its
/// rows are collected from the crowd under the open-world assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    crowd: bool,
}

impl Table {
    /// An empty ordinary table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table { name: name.into(), schema, rows: Vec::new(), crowd: false }
    }

    /// An empty `CROWD` table (rows are crowd-collected).
    pub fn new_crowd(name: impl Into<String>, schema: Schema) -> Self {
        Table { name: name.into(), schema, rows: Vec::new(), crowd: true }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// True for `CROWD` tables.
    pub fn is_crowd(&self) -> bool {
        self.crowd
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after checking arity and types. Returns the new row's
    /// index.
    pub fn push(&mut self, row: Vec<Value>) -> crate::Result<usize> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (col, v) in self.schema.columns().iter().zip(&row) {
            let ok = matches!(
                (col.ty, v),
                (_, Value::CNull)
                    | (ColumnType::Text, Value::Text(_))
                    | (ColumnType::Int, Value::Int(_))
                    | (ColumnType::Float, Value::Float(_) | Value::Int(_))
            );
            if !ok {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                    got: v.to_string(),
                });
            }
        }
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    /// Borrow a row.
    pub fn row(&self, idx: usize) -> crate::Result<&[Value]> {
        self.rows
            .get(idx)
            .map(Vec::as_slice)
            .ok_or(StorageError::RowOutOfBounds { row: idx, len: self.rows.len() })
    }

    /// Borrow a cell by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> crate::Result<&Value> {
        let col = self.schema.column_index(column).ok_or_else(|| StorageError::UnknownColumn {
            table: self.name.clone(),
            column: column.to_string(),
        })?;
        Ok(&self.row(row)?[col])
    }

    /// Overwrite a cell (used by `FILL` when the crowd supplies a value).
    pub fn set_cell(&mut self, row: usize, column: &str, value: Value) -> crate::Result<()> {
        let col = self.schema.column_index(column).ok_or_else(|| StorageError::UnknownColumn {
            table: self.name.clone(),
            column: column.to_string(),
        })?;
        let len = self.rows.len();
        let r = self.rows.get_mut(row).ok_or(StorageError::RowOutOfBounds { row, len })?;
        r[col] = value;
        Ok(())
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// All values of a column as display strings (what a crowd worker would
    /// see); used to build similarity-join inputs.
    pub fn column_strings(&self, column: &str) -> crate::Result<Vec<String>> {
        let col = self.schema.column_index(column).ok_or_else(|| StorageError::UnknownColumn {
            table: self.name.clone(),
            column: column.to_string(),
        })?;
        Ok(self.rows.iter().map(|r| r[col].display_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnDef;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("title", ColumnType::Text),
            ColumnDef::new("number", ColumnType::Int),
        ]);
        Table::new("Citation", schema)
    }

    #[test]
    fn push_and_read_roundtrip() {
        let mut t = table();
        let idx = t.push(vec![Value::from("CrowdER"), Value::Int(56)]).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(t.cell(0, "title").unwrap().as_text(), Some("CrowdER"));
        assert_eq!(t.cell(0, "NUMBER").unwrap().as_int(), Some(56));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.push(vec![Value::from("x")]).unwrap_err();
        assert_eq!(err, StorageError::ArityMismatch { expected: 2, got: 1 });
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t.push(vec![Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn cnull_allowed_in_any_column() {
        let mut t = table();
        t.push(vec![Value::CNull, Value::CNull]).unwrap();
        assert!(t.cell(0, "title").unwrap().is_cnull());
    }

    #[test]
    fn int_coerces_into_float_column() {
        let schema = Schema::new(vec![ColumnDef::new("score", ColumnType::Float)]);
        let mut t = Table::new("S", schema);
        t.push(vec![Value::Int(3)]).unwrap();
    }

    #[test]
    fn set_cell_fills_value() {
        let mut t = table();
        t.push(vec![Value::CNull, Value::Int(0)]).unwrap();
        t.set_cell(0, "title", Value::from("filled")).unwrap();
        assert_eq!(t.cell(0, "title").unwrap().as_text(), Some("filled"));
    }

    #[test]
    fn out_of_bounds_row() {
        let t = table();
        assert!(matches!(t.row(0), Err(StorageError::RowOutOfBounds { .. })));
    }

    #[test]
    fn unknown_column() {
        let mut t = table();
        t.push(vec![Value::from("x"), Value::Int(1)]).unwrap();
        assert!(matches!(t.cell(0, "nope"), Err(StorageError::UnknownColumn { .. })));
    }

    #[test]
    fn column_strings_render_cnull_blank() {
        let mut t = table();
        t.push(vec![Value::from("a"), Value::Int(1)]).unwrap();
        t.push(vec![Value::CNull, Value::Int(2)]).unwrap();
        assert_eq!(t.column_strings("title").unwrap(), vec!["a".to_string(), String::new()]);
    }

    #[test]
    fn crowd_table_flag() {
        let schema = Schema::new(vec![ColumnDef::new("name", ColumnType::Text)]);
        assert!(Table::new_crowd("University", schema).is_crowd());
    }
}
