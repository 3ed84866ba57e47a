//! The zero-loss oracle: re-execute served queries in process
//! ([`cdb_runtime::execute_query`] with the server's seed and plan) and
//! check their NDJSON streams against it — the server must lose nothing,
//! duplicate nothing and invent nothing on the way to the wire.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cdb_core::{PredicateIndex, QueryTruth};
use cdb_runtime::{execute_query, QueryJob, RuntimeMetrics};

use crate::state::{plan, ServeConfig};
use crate::wire::StreamEvent;

/// The zero-loss check's verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCheck {
    /// Streams compared.
    pub queries: u64,
    /// Oracle answer bindings across all compared queries.
    pub bindings_total: u64,
    /// Oracle bindings the stream never delivered (must be 0).
    pub lost: u64,
    /// Bindings delivered more than once in one stream (must be 0).
    pub duplicated: u64,
    /// Streamed-then-withdrawn bindings (nonzero only for recoloring
    /// quality strategies).
    pub retracted: u64,
    /// Bindings the stream claims that the oracle does not (must be 0).
    pub spurious: u64,
}

impl OracleCheck {
    /// True when the wire lost nothing, duplicated nothing, and invented
    /// nothing.
    pub fn clean(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.spurious == 0
    }
}

/// Re-execute every watched query in-process with the server's exact
/// plan and configuration and compare bindings: the streamed union
/// (minus retractions) must equal the oracle's answer set, with no
/// binding streamed twice. SQL the server would reject has no answer, so
/// every binding streamed for it is spurious.
pub fn verify_streams(
    db: &cdb_storage::Database,
    truth: &QueryTruth,
    cfg: &ServeConfig,
    sql: &str,
    streams: &BTreeMap<u64, Vec<StreamEvent>>,
) -> OracleCheck {
    // A fresh index: every oracle diff also checks the server's indexed
    // plans against unindexed ones.
    let plan = plan(db, &PredicateIndex::default(), cfg, sql).ok().map(|p| {
        let key = truth.edge_truth(&p.graph);
        (p, key)
    });
    let metrics = Arc::new(RuntimeMetrics::new());
    let mut check = OracleCheck::default();
    for (&id, events) in streams {
        let oracle: BTreeSet<Vec<u64>> = match &plan {
            Some((p, key)) => {
                let job = QueryJob { id, graph: p.graph.clone(), truth: key.clone() };
                let (_, result) = execute_query(&p.runtime, &metrics, job, None);
                result
                    .expect("oracle run succeeds")
                    .bindings
                    .iter()
                    .map(|b| b.iter().map(|n| n.0 as u64).collect())
                    .collect()
            }
            None => BTreeSet::new(),
        };
        let mut streamed: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut retracted: Vec<Vec<u64>> = Vec::new();
        for e in events {
            match e {
                StreamEvent::Round { new, .. } => {
                    for b in new {
                        *streamed.entry(b.clone()).or_default() += 1;
                    }
                }
                StreamEvent::Retract { bindings } => retracted.extend(bindings.iter().cloned()),
                _ => {}
            }
        }
        check.queries += 1;
        check.bindings_total += oracle.len() as u64;
        check.retracted += retracted.len() as u64;
        check.duplicated += streamed.values().filter(|&&c| c > 1).count() as u64;
        let mut net: BTreeSet<Vec<u64>> = streamed.into_keys().collect();
        for b in &retracted {
            net.remove(b);
        }
        check.lost += oracle.difference(&net).count() as u64;
        check.spurious += net.difference(&oracle).count() as u64;
    }
    check
}
