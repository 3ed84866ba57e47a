//! Build the graph query model from an analyzed CQL query and a database.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cdb_cql::{AnalyzedPredicate, AnalyzedSelect, BoundColumn, Literal};
use cdb_similarity::{similarity_join, SimJoinPair, SimilarityFn};
use cdb_storage::{Database, TupleId, Value};

use crate::model::{NodeId, PartId, PartKind, QueryGraph};
use crate::prune::prune_invalid_edges;

/// Graph construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphBuildConfig {
    /// Similarity function used as the matching-probability estimator
    /// (paper default: 2-gram Jaccard).
    pub similarity: SimilarityFn,
    /// Edge threshold ε: pairs below it are not materialized (paper: 0.3).
    pub epsilon: f64,
}

impl Default for GraphBuildConfig {
    fn default() -> Self {
        GraphBuildConfig { similarity: SimilarityFn::default(), epsilon: 0.3 }
    }
}

/// What a CROWDJOIN's verified pairs depend on: the left and right
/// `(table, column)`, lower-cased as the catalog resolves them, the
/// similarity function and the bits of ε.
type JoinKey = ((String, String), (String, String), SimilarityFn, u64);

/// One key's pair list, filled by the first build that needs it.
type PairCell = Arc<OnceLock<Arc<[SimJoinPair]>>>;

/// Every CROWDJOIN's verified pair list over one catalog, filled lazily.
/// A join's candidate edges (§4.1) depend only on its two columns, the
/// similarity function and ε, so each such key is joined once (concurrent
/// builds of a cold key wait on one join) and later builds look it up.
/// Nothing is evicted, as the catalog's column pairs bound the keys. The
/// catalog must not change while an index serves it: the server's
/// qualifies, the [`Cdb`](crate::Cdb) façade's (which `FILL` mutates) does
/// not.
#[derive(Debug, Default)]
pub struct PredicateIndex {
    joins: Mutex<HashMap<JoinKey, PairCell>>,
    builds: AtomicU64,
}

impl PredicateIndex {
    /// `(entries, pairs)`: the pair lists held and their total length.
    pub fn size(&self) -> (usize, usize) {
        let joins = self.joins.lock().expect("no thread panics holding the index lock");
        joins.values().filter_map(|cell| cell.get()).fold((0, 0), |(n, p), v| (n + 1, p + v.len()))
    }

    /// Similarity joins run to fill the index: at most one per key.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// The verified pairs of `left CROWDJOIN right` in `similarity_join`'s
    /// output order, joining the two columns only on this key's first use.
    fn crowd_join(
        &self,
        db: &Database,
        left: &BoundColumn,
        right: &BoundColumn,
        cfg: &GraphBuildConfig,
    ) -> Arc<[SimJoinPair]> {
        let name = |c: &BoundColumn| (c.table.to_lowercase(), c.column.to_ascii_lowercase());
        let key = (name(left), name(right), cfg.similarity, cfg.epsilon.to_bits());
        // The map lock is held only to fetch the cell; the join runs outside it.
        let mut joins = self.joins.lock().expect("no thread panics holding the index lock");
        let cell = Arc::clone(joins.entry(key).or_default());
        drop(joins);
        let pairs = cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let column = |c: &BoundColumn| {
                db.table(&c.table).expect("resolved").column_strings(&c.column).expect("resolved")
            };
            let (lvals, rvals) = (column(left), column(right));
            let lrefs: Vec<&str> = lvals.iter().map(String::as_str).collect();
            let rrefs: Vec<&str> = rvals.iter().map(String::as_str).collect();
            let mut join_phase =
                cdb_obsv::profile::phase(cdb_obsv::profile::phases::SIMILARITY_JOIN);
            join_phase.set(cdb_obsv::attr::keys::N, (lrefs.len() * rrefs.len()) as u64);
            similarity_join(&lrefs, &rrefs, cfg.similarity, cfg.epsilon).into()
        });
        Arc::clone(pairs)
    }
}

/// Build the query graph (Definition 1):
///
/// * one part per `FROM` table, one vertex per tuple;
/// * one part + constant vertex per selection predicate (§4.2);
/// * crowd predicates contribute edges with weight = similarity ≥ ε,
///   found via the prefix-filter similarity join;
/// * traditional predicates contribute weight-1 edges (immediately Blue)
///   where the predicate holds.
///
/// Invalid edges (in no candidate) are pruned before returning.
pub fn build_query_graph(
    query: &AnalyzedSelect,
    db: &Database,
    cfg: &GraphBuildConfig,
) -> QueryGraph {
    build_query_graph_indexed(query, db, cfg, &PredicateIndex::default())
}

/// [`build_query_graph`], reading each CROWDJOIN's pairs through `index`,
/// which must only ever see `db`. The graph is the same as without it.
pub fn build_query_graph_indexed(
    query: &AnalyzedSelect,
    db: &Database,
    cfg: &GraphBuildConfig,
    index: &PredicateIndex,
) -> QueryGraph {
    let mut build_phase = cdb_obsv::profile::phase(cdb_obsv::profile::phases::GRAPH_BUILD);
    let mut g = QueryGraph::new();

    // Parts and vertices for tables. The vertex label is the value of the
    // column the tuple is joined/selected on; since a tuple can join on
    // several columns, labels here are per-(part, column) caches and edge
    // construction reads cell values directly.
    let mut part_of_table: std::collections::HashMap<String, PartId> =
        std::collections::HashMap::new();
    let mut nodes_of_table: std::collections::HashMap<String, Vec<NodeId>> =
        std::collections::HashMap::new();
    for t in &query.tables {
        let part = g.add_part(PartKind::Table { name: t.clone() });
        let table = db.table(t).expect("analyzer resolved the table");
        let mut nodes = Vec::with_capacity(table.row_count());
        for row in 0..table.row_count() {
            // Label: a compact rendering of the row for task UIs.
            let label = format!("{t}#{row}");
            nodes.push(g.add_node(part, Some(TupleId::new(t.clone(), row)), label));
        }
        part_of_table.insert(t.clone(), part);
        nodes_of_table.insert(t.clone(), nodes);
    }

    for pred in &query.predicates {
        match pred {
            AnalyzedPredicate::CrowdJoin { left, right } => {
                let pa = part_of_table[&left.table];
                let pb = part_of_table[&right.table];
                let pid = g.add_predicate(pa, pb, true, format!("{left} CROWDJOIN {right}"));
                for pair in index.crowd_join(db, left, right, cfg).iter() {
                    let u = nodes_of_table[&left.table][pair.left];
                    let v = nodes_of_table[&right.table][pair.right];
                    // Cap below 1.0: identical strings still need crowd
                    // confirmation under a crowd predicate (only
                    // traditional predicates are auto-Blue).
                    let w = pair.sim.min(0.999_999);
                    g.add_edge(u, v, pid, w);
                }
            }
            AnalyzedPredicate::EquiJoin { left, right } => {
                let pa = part_of_table[&left.table];
                let pb = part_of_table[&right.table];
                let pid = g.add_predicate(pa, pb, false, format!("{left} = {right}"));
                let ltab = db.table(&left.table).expect("resolved");
                let rtab = db.table(&right.table).expect("resolved");
                for (i, &u) in nodes_of_table[&left.table].iter().enumerate() {
                    let lv = ltab.cell(i, &left.column).expect("resolved");
                    for (j, &v) in nodes_of_table[&right.table].iter().enumerate() {
                        let rv = rtab.cell(j, &right.column).expect("resolved");
                        if lv.sql_eq(rv) {
                            g.add_edge(u, v, pid, 1.0);
                        }
                    }
                }
            }
            AnalyzedPredicate::CrowdEqual { column, value } => {
                let pa = part_of_table[&column.table];
                let lit = literal_string(value);
                let cpart = g.add_part(PartKind::Constant { value: lit.clone() });
                let cnode = g.add_node(cpart, None, lit.clone());
                let pid =
                    g.add_predicate(pa, cpart, true, format!("{column} CROWDEQUAL \"{lit}\""));
                let vals = db
                    .table(&column.table)
                    .expect("resolved")
                    .column_strings(&column.column)
                    .expect("resolved");
                let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
                for pair in similarity_join(&vals, &[&lit], cfg.similarity, cfg.epsilon) {
                    let u = nodes_of_table[&column.table][pair.left];
                    g.add_edge(u, cnode, pid, pair.sim.min(0.999_999));
                }
            }
            AnalyzedPredicate::Equal { column, value } => {
                let pa = part_of_table[&column.table];
                let lit = literal_string(value);
                let cpart = g.add_part(PartKind::Constant { value: lit.clone() });
                let cnode = g.add_node(cpart, None, lit.clone());
                let pid = g.add_predicate(pa, cpart, false, format!("{column} = \"{lit}\""));
                let table = db.table(&column.table).expect("resolved");
                let lit_value = literal_value(value);
                for (i, &u) in nodes_of_table[&column.table].iter().enumerate() {
                    let cell = table.cell(i, &column.column).expect("resolved");
                    if cell.sql_eq(&lit_value) {
                        g.add_edge(u, cnode, pid, 1.0);
                    }
                }
            }
        }
    }

    prune_invalid_edges(&mut g);
    build_phase.set(cdb_obsv::attr::keys::N, g.edge_count() as u64);
    g
}

fn literal_string(lit: &Literal) -> String {
    match lit {
        Literal::Str(s) => s.clone(),
        Literal::Int(i) => i.to_string(),
        Literal::Float(x) => x.to_string(),
    }
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Str(s) => Value::Text(s.clone()),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate_candidates, CandidateFilter};
    use crate::model::Color;
    use cdb_cql::{analyze_select, parse, Statement};
    use cdb_storage::{ColumnDef, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut db = Database::new();
        let mut paper = Table::new(
            "Paper",
            Schema::new(vec![
                ColumnDef::new("title", ColumnType::Text),
                ColumnDef::new("conference", ColumnType::Text),
            ]),
        );
        paper
            .push(vec![Value::from("Crowdsourced Data Cleaning"), Value::from("sigmod16")])
            .unwrap();
        paper.push(vec![Value::from("Query Processing on SSDs"), Value::from("sigmod13")]).unwrap();
        paper.push(vec![Value::from("Neural Topic Models"), Value::from("icml")]).unwrap();
        let mut citation = Table::new(
            "Citation",
            Schema::new(vec![
                ColumnDef::new("title", ColumnType::Text),
                ColumnDef::new("number", ColumnType::Int),
            ]),
        );
        citation.push(vec![Value::from("Crowdsourced Data Cleaning."), Value::Int(10)]).unwrap();
        citation.push(vec![Value::from("Query Processing on smart SSDs"), Value::Int(5)]).unwrap();
        citation.push(vec![Value::from("Unrelated Biology Paper"), Value::Int(7)]).unwrap();
        db.add_table(paper).unwrap();
        db.add_table(citation).unwrap();
        db
    }

    fn graph_for(sql: &str) -> QueryGraph {
        let database = db();
        let Statement::Select(q) = parse(sql).unwrap() else { panic!() };
        let analyzed = analyze_select(&q, &database).unwrap();
        build_query_graph(&analyzed, &database, &GraphBuildConfig::default())
    }

    #[test]
    fn crowdjoin_edges_follow_similarity_threshold() {
        let g =
            graph_for("SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title");
        // Similar titles produce edges; the biology citation matches none.
        assert!(g.edge_count() >= 2);
        for i in 0..g.edge_count() {
            let e = crate::model::EdgeId(i);
            assert!(g.edge_weight(e) >= 0.3);
            assert!(g.edge_weight(e) < 1.0);
            assert_eq!(g.edge_color(e), Color::Unknown);
        }
    }

    #[test]
    fn crowdequal_adds_constant_part() {
        let g = graph_for(
            "SELECT * FROM Paper, Citation \
             WHERE Paper.title CROWDJOIN Citation.title AND \
             Paper.conference CROWDEQUAL \"sigmod\"",
        );
        assert_eq!(g.part_count(), 3);
        let const_part = PartId(2);
        assert!(
            matches!(g.part_kind(const_part), PartKind::Constant { value } if value == "sigmod")
        );
        assert_eq!(g.part_nodes(const_part).len(), 1);
    }

    #[test]
    fn candidates_exist_after_build() {
        let g =
            graph_for("SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title");
        assert!(!enumerate_candidates(&g, CandidateFilter::Live).is_empty());
    }

    #[test]
    fn invalid_edges_are_pruned_at_build_time() {
        // With the selection predicate, papers whose conference is far from
        // "sigmod" (the icml paper) lose their selection edge; their join
        // edges must be pruned as invalid.
        let g = graph_for(
            "SELECT * FROM Paper, Citation \
             WHERE Paper.title CROWDJOIN Citation.title AND \
             Paper.conference CROWDEQUAL \"sigmod\"",
        );
        for e in g.open_edges() {
            assert!(crate::candidate::edge_in_some_candidate(&g, e, CandidateFilter::Live));
        }
    }

    #[test]
    fn traditional_equal_is_blue_weight_one() {
        let g = graph_for(
            "SELECT * FROM Paper, Citation \
             WHERE Paper.title CROWDJOIN Citation.title AND \
             Paper.conference = \"sigmod16\"",
        );
        // The selection edge for the sigmod16 paper is Blue already.
        let blue: Vec<_> = (0..g.edge_count())
            .map(crate::model::EdgeId)
            .filter(|&e| g.edge_color(e) == Color::Blue)
            .collect();
        assert_eq!(blue.len(), 1);
        assert_eq!(g.edge_weight(blue[0]), 1.0);
    }

    #[test]
    fn nosim_build_keeps_all_pairs() {
        let database = db();
        let Statement::Select(q) =
            parse("SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title")
                .unwrap()
        else {
            panic!()
        };
        let analyzed = analyze_select(&q, &database).unwrap();
        let cfg = GraphBuildConfig { similarity: SimilarityFn::NoSim, epsilon: 0.3 };
        let g = build_query_graph(&analyzed, &database, &cfg);
        assert_eq!(g.edge_count(), 9); // 3x3 all pairs at weight 0.5
    }
}
