//! The `Cdb` façade: parse CQL, build the graph, optimize and execute.

use std::collections::BTreeSet;

use cdb_cql::{analyze_select, parse, AnalyzedSelect, CqlError, Statement};
use cdb_crowd::SimulatedPlatform;
use cdb_storage::{ColumnDef, ColumnType, Database, Schema, Table};

use crate::build::{build_query_graph, GraphBuildConfig};
use crate::executor::{ExecutionStats, Executor, ExecutorConfig};
use crate::metrics::{precision_recall, PrMetrics};
use crate::model::QueryGraph;
use crate::truth::{true_answers, QueryTruth, SimCrowd};

/// End-to-end configuration for [`Cdb::run_select`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CdbConfig {
    /// Graph construction (similarity function, ε).
    pub build: GraphBuildConfig,
    /// Execution (selection/quality/latency strategies, redundancy).
    pub exec: ExecutorConfig,
}

/// Result of running a SELECT end to end.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Cost/latency stats and the returned answers.
    pub stats: ExecutionStats,
    /// Precision/recall/F against the ground truth.
    pub metrics: PrMetrics,
    /// Number of true answers reachable in the built graph (the recall
    /// denominator).
    pub true_answer_count: usize,
    /// `GROUP BY CROWD` result: answer indices per group (in
    /// first-appearance order), when the query asked for grouping.
    pub groups: Option<Vec<Vec<usize>>>,
    /// `ORDER BY CROWD` result: answer indices in crowd-judged order, when
    /// the query asked for ordering.
    pub order: Option<Vec<usize>>,
    /// Extra crowd tasks spent on the post-ops (comparisons + group
    /// verifications).
    pub post_tasks: usize,
}

/// A CDB instance: a catalog plus the machinery to run CQL against a crowd
/// platform.
#[derive(Debug, Default)]
pub struct Cdb {
    db: Database,
    trace: cdb_obsv::Trace,
}

impl Cdb {
    /// An empty instance.
    pub fn new() -> Self {
        Cdb { db: Database::new(), trace: cdb_obsv::Trace::off() }
    }

    /// Wrap an existing database.
    pub fn with_database(db: Database) -> Self {
        Cdb { db, trace: cdb_obsv::Trace::off() }
    }

    /// Attach an observability sink: `run_select` emits a `plan.select`
    /// event per query and threads the trace into the [`Executor`].
    pub fn set_trace(&mut self, trace: cdb_obsv::Trace) {
        self.trace = trace;
    }

    /// The catalog.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable catalog access (e.g. to load generated data).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Execute a CQL DDL statement (`CREATE [CROWD] TABLE`).
    pub fn execute_ddl(&mut self, sql: &str) -> Result<(), CqlError> {
        match parse(sql)? {
            Statement::CreateTable(ct) => {
                let columns = ct
                    .columns
                    .iter()
                    .map(|c| {
                        let ty = match c.ty {
                            cdb_cql::TypeName::Varchar(_) => ColumnType::Text,
                            cdb_cql::TypeName::Int => ColumnType::Int,
                            cdb_cql::TypeName::Float => ColumnType::Float,
                        };
                        ColumnDef { name: c.name.clone(), ty, crowd: c.crowd }
                    })
                    .collect();
                let schema = Schema::new(columns);
                let table = if ct.crowd {
                    Table::new_crowd(&ct.name, schema)
                } else {
                    Table::new(&ct.name, schema)
                };
                self.db.add_table(table).map_err(|e| CqlError::Semantic(e.to_string()))
            }
            _ => Err(CqlError::Semantic("expected a CREATE TABLE statement".into())),
        }
    }

    /// Build the query graph for a CQL SELECT without executing it (see
    /// [`plan_select`]).
    pub fn plan_select(&self, sql: &str, build: &GraphBuildConfig) -> Result<QueryGraph, CqlError> {
        plan_select(&self.db, sql, build).map(|(_, graph)| graph)
    }

    /// Execute a CQL `FILL` statement: every `CNULL` cell of the target
    /// column (restricted by the optional `WHERE` filter) is crowdsourced
    /// and the inferred value written back into the table.
    ///
    /// `ground_truth(row)` supplies the latent true value per row for the
    /// simulated workers; rows whose cell is not `CNULL` are skipped. A
    /// `BUDGET n` clause caps the number of filled cells.
    pub fn run_fill(
        &mut self,
        sql: &str,
        ground_truth: &dyn Fn(usize) -> String,
        platform: &mut SimulatedPlatform,
        cfg: &crate::fillcollect::FillConfig,
    ) -> Result<crate::fillcollect::FillOutcome, CqlError> {
        let Statement::Fill(stmt) = parse(sql)? else {
            return Err(CqlError::Semantic("expected a FILL statement".into()));
        };
        let table = self.db.table(&stmt.table).map_err(|e| CqlError::Semantic(e.to_string()))?;
        if table.schema().column(&stmt.column).is_none() {
            return Err(CqlError::Semantic(format!(
                "unknown column `{}` in `{}`",
                stmt.column, stmt.table
            )));
        }
        // Select target rows: CNULL cells passing the filter.
        let mut rows: Vec<usize> = Vec::new();
        for r in 0..table.row_count() {
            let cell =
                table.cell(r, &stmt.column).map_err(|e| CqlError::Semantic(e.to_string()))?;
            if !cell.is_cnull() {
                continue;
            }
            if let Some((col, lit)) = &stmt.filter {
                let v =
                    table.cell(r, &col.column).map_err(|e| CqlError::Semantic(e.to_string()))?;
                let lit_v = literal_value(lit);
                if !v.sql_eq(&lit_v) {
                    continue;
                }
            }
            rows.push(r);
        }
        if let Some(b) = stmt.budget {
            rows.truncate(b);
        }
        let truths: Vec<String> = rows.iter().map(|&r| ground_truth(r)).collect();
        let outcome = crate::fillcollect::execute_fill(&truths, platform, cfg);
        // Write the inferred values back.
        let table =
            self.db.table_mut(&stmt.table).map_err(|e| CqlError::Semantic(e.to_string()))?;
        for (&r, value) in rows.iter().zip(&outcome.values) {
            table
                .set_cell(r, &stmt.column, cdb_storage::Value::Text(value.clone()))
                .map_err(|e| CqlError::Semantic(e.to_string()))?;
        }
        Ok(outcome)
    }

    /// Execute a CQL `COLLECT` statement against a closed value universe
    /// (the simulation stand-in for the open world): collected values are
    /// appended as new rows of the target crowd table, one column filled,
    /// the rest `CNULL` (to be `FILL`ed later).
    pub fn run_collect(
        &mut self,
        sql: &str,
        universe: &[String],
        rng: &mut impl rand::Rng,
        cfg: &crate::fillcollect::CollectConfig,
    ) -> Result<crate::fillcollect::CollectOutcome, CqlError> {
        let Statement::Collect(stmt) = parse(sql)? else {
            return Err(CqlError::Semantic("expected a COLLECT statement".into()));
        };
        let first = stmt
            .columns
            .first()
            .ok_or_else(|| CqlError::Semantic("COLLECT needs at least one column".into()))?;
        let table_name = first
            .table
            .clone()
            .ok_or_else(|| CqlError::Semantic("COLLECT columns must be table-qualified".into()))?;
        let table = self.db.table(&table_name).map_err(|e| CqlError::Semantic(e.to_string()))?;
        if !table.is_crowd() {
            return Err(CqlError::Semantic(format!(
                "`{table_name}` is not a CROWD table; COLLECT needs one"
            )));
        }
        let column = if first.column == "*" {
            table.schema().columns()[0].name.clone()
        } else {
            first.column.clone()
        };
        if table.schema().column(&column).is_none() {
            return Err(CqlError::Semantic(format!("unknown column `{column}` in `{table_name}`")));
        }
        let mut cfg = *cfg;
        if let Some(b) = stmt.budget {
            cfg.max_questions = cfg.max_questions.min(b);
        }
        let outcome = crate::fillcollect::execute_collect(universe, rng, &cfg);
        // Append the collected distinct values as rows.
        let arity = table.schema().arity();
        let col_idx = table.schema().column_index(&column).expect("checked above");
        // The outcome reports counts, not which canonical values were
        // gathered (workers' draws are consumed by the simulation); append
        // the first `distinct` universe values that survive dedup — the
        // same canonical set a real run converges to.
        let mut store = cdb_crowd::AutocompleteStore::new();
        let mut appended = 0usize;
        let table =
            self.db.table_mut(&table_name).map_err(|e| CqlError::Semantic(e.to_string()))?;
        for v in universe {
            if appended >= outcome.distinct {
                break;
            }
            if store.contribute(v, cfg.similarity, cfg.dedup_threshold) {
                let mut row = vec![cdb_storage::Value::CNull; arity];
                row[col_idx] = cdb_storage::Value::Text(v.clone());
                table.push(row).map_err(|e| CqlError::Semantic(e.to_string()))?;
                appended += 1;
            }
        }
        Ok(outcome)
    }

    /// Run a CQL SELECT end to end against a crowd platform, scoring the
    /// result with the supplied ground truth. A `BUDGET n` clause in the
    /// CQL overrides `cfg.exec.budget`.
    pub fn run_select(
        &self,
        sql: &str,
        truth: &QueryTruth,
        platform: &mut SimulatedPlatform,
        cfg: &CdbConfig,
    ) -> Result<QueryOutcome, CqlError> {
        let (analyzed, graph) = plan_select(&self.db, sql, &cfg.build)?;
        let edge_truth = truth.edge_truth(&graph);

        let mut exec_cfg = cfg.exec;
        if analyzed.budget.is_some() {
            exec_cfg.budget = analyzed.budget;
        }
        let reference: BTreeSet<_> =
            true_answers(&graph, &edge_truth).into_iter().map(|c| c.binding).collect();
        // The plan-selection fact: what the optimizer is about to execute.
        self.trace.emit(cdb_obsv::Event::instant(
            cdb_obsv::SpanId::root(),
            cdb_obsv::attr::names::PLAN_SELECT,
            0,
            cdb_obsv::kv![
                edges => graph.edge_count() as u64,
                parts => graph.part_count() as u64,
                n => reference.len() as u64
            ],
        ));
        let stats =
            Executor::new(graph.clone(), &mut SimCrowd::new(platform, &edge_truth), exec_cfg)
                .with_trace(self.trace.clone())
                .run();
        let metrics = precision_recall(&stats.answer_bindings(), &reference);

        // Crowd post-ops (the §4.2 Remark): group/sort the answers by a
        // key column using crowdsourced ER / pairwise comparisons.
        let mut groups = None;
        let mut order = None;
        let mut post_tasks = 0usize;
        if analyzed.group_by.is_some() || analyzed.order_by.is_some() {
            let extract_keys = |col: &cdb_cql::BoundColumn| -> Vec<String> {
                stats
                    .answers
                    .iter()
                    .map(|cand| {
                        cand.binding
                            .iter()
                            .filter_map(|&n| graph.node_tuple(n))
                            .find(|t| t.table.eq_ignore_ascii_case(&col.table))
                            .and_then(|t| {
                                self.db
                                    .table(&t.table)
                                    .ok()
                                    .and_then(|tab| tab.cell(t.row, &col.column).ok().cloned())
                            })
                            .map(|v| v.display_string())
                            .unwrap_or_default()
                    })
                    .collect()
            };
            if let Some(op) = &analyzed.group_by {
                let keys = extract_keys(&op.column);
                // Simulated entity ground truth for grouping: normalized
                // key equality (QueryTruth carries join/selection truth,
                // not per-column entity ids).
                let norm: Vec<String> = keys.iter().map(|k| k.trim().to_lowercase()).collect();
                let out = crate::ops::crowd_group(
                    &keys,
                    &|i, j| norm[i] == norm[j],
                    platform,
                    exec_cfg.redundancy,
                    cfg.build.similarity,
                    cfg.build.epsilon.max(0.5),
                );
                post_tasks += out.tasks_asked;
                groups = Some(out.groups);
            }
            if let Some(op) = &analyzed.order_by {
                let keys = extract_keys(&op.column);
                // Latent true ranking: sort keys (numerically when they
                // parse as numbers, lexicographically otherwise).
                let mut idx: Vec<usize> = (0..keys.len()).collect();
                let numeric: Vec<Option<f64>> =
                    keys.iter().map(|k| k.parse::<f64>().ok()).collect();
                idx.sort_by(|&a, &b| match (numeric[a], numeric[b]) {
                    (Some(x), Some(y)) => y.total_cmp(&x),
                    _ => keys[b].cmp(&keys[a]),
                });
                let mut rank = vec![0usize; keys.len()];
                for (r, &i) in idx.iter().enumerate() {
                    rank[i] = r;
                }
                let out = crate::ops::crowd_sort(&keys, &rank, platform, exec_cfg.redundancy);
                post_tasks += out.tasks_asked;
                let mut o = out.order;
                if !op.descending {
                    o.reverse();
                }
                order = Some(o);
            }
        }

        Ok(QueryOutcome {
            stats,
            metrics,
            true_answer_count: reference.len(),
            groups,
            order,
            post_tasks,
        })
    }
}

/// Plan a CQL SELECT against `db`: [`analyze_sql`], then build the query
/// graph. Every path that runs a SELECT — the façade, the experiment
/// harness and the simulator — plans it here; the server analyzes first
/// and builds through its [`PredicateIndex`](crate::PredicateIndex).
pub fn plan_select(
    db: &Database,
    sql: &str,
    build: &GraphBuildConfig,
) -> Result<(AnalyzedSelect, QueryGraph), CqlError> {
    let analyzed = analyze_sql(db, sql)?;
    let graph = build_query_graph(&analyzed, db, build);
    Ok((analyzed, graph))
}

/// Parse CQL, refuse any statement but a SELECT, and analyze it against
/// `db`.
pub fn analyze_sql(db: &Database, sql: &str) -> Result<AnalyzedSelect, CqlError> {
    let Statement::Select(q) = parse(sql)? else {
        return Err(CqlError::Semantic("expected a SELECT statement".into()));
    };
    analyze_select(&q, db)
}

/// Convert a CQL literal into a storage value.
fn literal_value(lit: &cdb_cql::Literal) -> cdb_storage::Value {
    match lit {
        cdb_cql::Literal::Str(s) => cdb_storage::Value::Text(s.clone()),
        cdb_cql::Literal::Int(i) => cdb_storage::Value::Int(*i),
        cdb_cql::Literal::Float(x) => cdb_storage::Value::Float(*x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_crowd::{Market, WorkerPool};
    use cdb_storage::{TupleId, Value};

    /// Two-table micro dataset with known matches.
    fn setup() -> (Cdb, QueryTruth) {
        let mut cdb = Cdb::new();
        cdb.execute_ddl("CREATE TABLE Researcher (name varchar(64), affiliation varchar(64))")
            .unwrap();
        cdb.execute_ddl("CREATE TABLE University (name varchar(64), country varchar(16))").unwrap();
        {
            let db = cdb.database_mut();
            let r = db.table_mut("Researcher").unwrap();
            r.push(vec![Value::from("M. Franklin"), Value::from("Univ. of California")]).unwrap();
            r.push(vec![Value::from("S. Madden"), Value::from("MIT CSAIL")]).unwrap();
            r.push(vec![Value::from("D. DeWitt"), Value::from("Univ. of Wisconsin")]).unwrap();
            let u = db.table_mut("University").unwrap();
            u.push(vec![Value::from("University of California"), Value::from("USA")]).unwrap();
            u.push(vec![Value::from("University of Wisconsin"), Value::from("USA")]).unwrap();
            u.push(vec![Value::from("University of Cambridge"), Value::from("UK")]).unwrap();
        }
        let mut truth = QueryTruth::default();
        truth.add_join(TupleId::new("Researcher", 0), TupleId::new("University", 0));
        truth.add_join(TupleId::new("Researcher", 2), TupleId::new("University", 1));
        (cdb, truth)
    }

    #[test]
    fn ddl_roundtrip() {
        let (cdb, _) = setup();
        assert!(cdb.database().contains_table("Researcher"));
        assert!(cdb.database().contains_table("University"));
    }

    #[test]
    fn ddl_rejects_non_create() {
        let mut cdb = Cdb::new();
        assert!(cdb.execute_ddl("SELECT * FROM X").is_err());
    }

    #[test]
    fn plan_builds_graph() {
        let (cdb, _) = setup();
        let g = cdb
            .plan_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name",
                &GraphBuildConfig::default(),
            )
            .unwrap();
        assert_eq!(g.part_count(), 2);
        assert!(g.edge_count() >= 2);
    }

    #[test]
    fn run_select_finds_true_matches_with_perfect_workers() {
        let (cdb, truth) = setup();
        let mut platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 7);
        let out = cdb
            .run_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name",
                &truth,
                &mut platform,
                &CdbConfig::default(),
            )
            .unwrap();
        assert_eq!(out.metrics.f_measure, 1.0, "{:?}", out.metrics);
        assert!(out.stats.tasks_asked >= out.true_answer_count);
    }

    #[test]
    fn budget_clause_overrides_config() {
        let (cdb, truth) = setup();
        let mut platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 7);
        let out = cdb
            .run_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name BUDGET 1",
                &truth,
                &mut platform,
                &CdbConfig::default(),
            )
            .unwrap();
        assert!(out.stats.tasks_asked <= 1);
    }

    #[test]
    fn traced_select_emits_the_plan_fact() {
        use cdb_obsv::{attr::names, Ring, Trace};
        use std::sync::Arc;
        let (mut cdb, truth) = setup();
        let ring = Arc::new(Ring::with_capacity(2048));
        cdb.set_trace(Trace::collector(ring.clone()));
        let mut platform =
            SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[1.0; 10]), 7);
        let out = cdb
            .run_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name",
                &truth,
                &mut platform,
                &CdbConfig::default(),
            )
            .unwrap();
        let evs = ring.drain();
        let plan = evs.iter().find(|e| e.name == names::PLAN_SELECT).expect("plan fact");
        assert_eq!(plan.get_u64("n"), Some(out.true_answer_count as u64));
        // The executor's trace rode along: plan-node bindings were emitted.
        assert_eq!(
            evs.iter().filter(|e| e.name == names::PLAN_EDGE).count(),
            out.stats.tasks_asked
        );
    }

    #[test]
    fn edge_truth_marks_traditional_blue_edges_true() {
        let (cdb, truth) = setup();
        let g = cdb
            .plan_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name AND \
                 University.country = \"USA\"",
                &GraphBuildConfig::default(),
            )
            .unwrap();
        let et = truth.edge_truth(&g);
        for i in 0..g.edge_count() {
            let e = crate::model::EdgeId(i);
            if g.edge_color(e) == crate::model::Color::Blue {
                assert!(et[&e]);
            }
        }
    }

    #[test]
    fn crowd_selection_truth_via_selections_set() {
        let (cdb, mut truth) = setup();
        truth.add_selection(TupleId::new("University", 0), "USA");
        let g = cdb
            .plan_select(
                "SELECT * FROM Researcher, University \
                 WHERE Researcher.affiliation CROWDJOIN University.name AND \
                 University.country CROWDEQUAL \"USA\"",
                &GraphBuildConfig::default(),
            )
            .unwrap();
        let et = truth.edge_truth(&g);
        // Exactly the edges incident to the constant part whose tuple is in
        // the selections set are true.
        let mut true_sel = 0;
        for i in 0..g.edge_count() {
            let e = crate::model::EdgeId(i);
            let (u, v) = g.edge_endpoints(e);
            let is_sel = g.node_tuple(u).is_none() || g.node_tuple(v).is_none();
            if is_sel && et[&e] {
                true_sel += 1;
            }
        }
        assert_eq!(true_sel, 1);
    }
}
