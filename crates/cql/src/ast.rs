//! CQL abstract syntax tree.

/// A parsed CQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE [CROWD] TABLE …`
    CreateTable(CreateTable),
    /// `SELECT … FROM … [WHERE …] [BUDGET n]`
    Select(SelectQuery),
    /// `FILL table.column [WHERE …] [BUDGET n]`
    Fill(FillStmt),
    /// `COLLECT cols [WHERE …] [BUDGET n]`
    Collect(CollectStmt),
}

/// Column type as written in DDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// `varchar(n)`; the length is advisory only.
    Varchar(u32),
    /// `int`.
    Int,
    /// `float`.
    Float,
}

/// One column in a `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// True when declared `CROWD` (fillable).
    pub crowd: bool,
}

/// `CREATE [CROWD] TABLE name (columns…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// True for `CREATE CROWD TABLE` (rows crowd-collected).
    pub crowd: bool,
    /// Column specifications.
    pub columns: Vec<ColumnSpec>,
}

/// A possibly table-qualified column reference `Table.column` or `column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Qualifying table, when written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into() }
    }

    /// Table-qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: Some(table.into()), column: column.into() }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A literal in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
        }
    }
}

/// One `WHERE` conjunct.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `a CROWDJOIN b` — crowd-powered join.
    CrowdJoin {
        /// Left column.
        left: ColumnRef,
        /// Right column.
        right: ColumnRef,
    },
    /// `a = b` between two columns — traditional equi-join.
    EquiJoin {
        /// Left column.
        left: ColumnRef,
        /// Right column.
        right: ColumnRef,
    },
    /// `a CROWDEQUAL literal` — crowd-powered selection.
    CrowdEqual {
        /// Selected column.
        column: ColumnRef,
        /// Comparison value.
        value: Literal,
    },
    /// `a = literal` — traditional selection.
    Equal {
        /// Selected column.
        column: ColumnRef,
        /// Comparison value.
        value: Literal,
    },
}

impl Predicate {
    /// True for crowd-powered predicates (CROWDJOIN / CROWDEQUAL).
    pub fn is_crowd(&self) -> bool {
        matches!(self, Predicate::CrowdJoin { .. } | Predicate::CrowdEqual { .. })
    }

    /// True for join predicates (crowd or traditional).
    pub fn is_join(&self) -> bool {
        matches!(self, Predicate::CrowdJoin { .. } | Predicate::EquiJoin { .. })
    }
}

/// `SELECT` projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit column list; `Table.*` is expanded during analysis.
    Columns(Vec<ColumnRef>),
}

/// Crowd-powered post-processing of the result set (the §4.2 Remark):
/// `GROUP BY CROWD col` clusters results by crowd-judged key equality;
/// `ORDER BY CROWD col [DESC|ASC]` ranks them with pairwise comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrowdPostOp {
    /// The key column.
    pub column: ColumnRef,
    /// For ORDER BY: descending (default) or ascending.
    pub descending: bool,
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// What to project.
    pub projection: Projection,
    /// `FROM` tables in order.
    pub tables: Vec<String>,
    /// `WHERE` conjuncts.
    pub predicates: Vec<Predicate>,
    /// Optional `GROUP BY CROWD col`.
    pub group_by: Option<CrowdPostOp>,
    /// Optional `ORDER BY CROWD col [DESC|ASC]`.
    pub order_by: Option<CrowdPostOp>,
    /// Optional `BUDGET n` (maximum number of crowd tasks).
    pub budget: Option<usize>,
}

/// `FILL table.column [WHERE column = literal] [BUDGET n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FillStmt {
    /// Target table.
    pub table: String,
    /// Column whose CNULL cells the crowd fills.
    pub column: String,
    /// Optional filter restricting which rows are filled.
    pub filter: Option<(ColumnRef, Literal)>,
    /// Optional task budget.
    pub budget: Option<usize>,
}

/// `COLLECT cols [WHERE column = literal] [BUDGET n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectStmt {
    /// Columns to collect; all must come from one crowd table.
    pub columns: Vec<ColumnRef>,
    /// Optional constraint the collected tuples must satisfy.
    pub filter: Option<(ColumnRef, Literal)>,
    /// Optional task budget.
    pub budget: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::qualified("Paper", "title").to_string(), "Paper.title");
        assert_eq!(ColumnRef::bare("title").to_string(), "title");
    }

    #[test]
    fn predicate_classification() {
        let cj = Predicate::CrowdJoin { left: ColumnRef::bare("a"), right: ColumnRef::bare("b") };
        assert!(cj.is_crowd());
        assert!(cj.is_join());
        let eq = Predicate::Equal { column: ColumnRef::bare("a"), value: Literal::Str("x".into()) };
        assert!(!eq.is_crowd());
        assert!(!eq.is_join());
        let ce =
            Predicate::CrowdEqual { column: ColumnRef::bare("a"), value: Literal::Str("x".into()) };
        assert!(ce.is_crowd());
        assert!(!ce.is_join());
    }

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Str("USA".into()).to_string(), "\"USA\"");
        assert_eq!(Literal::Int(5).to_string(), "5");
    }
}
