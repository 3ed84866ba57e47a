//! Table schemas with CROWD column markers.

/// Column data types supported by CQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Variable-length text (`varchar`).
    Text,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
}

impl ColumnType {
    /// Human-readable type name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Text => "text",
            ColumnType::Int => "int",
            ColumnType::Float => "float",
        }
    }
}

/// One column definition: name, type and whether it is a `CROWD` column
/// (its missing values can be crowdsourced with `FILL`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-preserving, matched case-insensitively).
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
    /// True for `CROWD` columns.
    pub crowd: bool,
}

impl ColumnDef {
    /// An ordinary (non-crowd) column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef { name: name.into(), ty, crowd: false }
    }

    /// A `CROWD` column.
    pub fn crowd(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef { name: name.into(), ty, crowd: true }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from column definitions.
    ///
    /// # Panics
    /// Panics if two columns share a name (case-insensitively) — schemas are
    /// requester-authored and a duplicate is a programming error.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                assert!(
                    !a.name.eq_ignore_ascii_case(&b.name),
                    "duplicate column name `{}`",
                    a.name
                );
            }
        }
        Schema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::crowd("affiliation", ColumnType::Text),
            ColumnDef::new("citations", ColumnType::Int),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("NAME"), Some(0));
        assert_eq!(s.column_index("Affiliation"), Some(1));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn crowd_flag_is_preserved() {
        let s = schema();
        assert!(!s.column("name").unwrap().crowd);
        assert!(s.column("affiliation").unwrap().crowd);
    }

    #[test]
    fn arity_counts_columns() {
        assert_eq!(schema().arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_rejected() {
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("NAME", ColumnType::Int),
        ]);
    }

    #[test]
    fn type_names() {
        assert_eq!(ColumnType::Text.name(), "text");
        assert_eq!(ColumnType::Int.name(), "int");
        assert_eq!(ColumnType::Float.name(), "float");
    }
}
