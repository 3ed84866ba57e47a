//! The wire protocol: typed encode/decode of every JSON envelope and
//! NDJSON stream line the service speaks, built on `cdb_obsv::json`
//! (the workspace is std-only: no serialization framework).
//!
//! Every encoder here is deterministic — fixed key order, no timestamps,
//! integer-exact numbers — because the per-query NDJSON stream is a
//! replay artifact: for a fixed server seed and query id it must be
//! byte-identical regardless of worker-pool size (the wire analogue of
//! the runtime's 1/4/8-thread replay guarantee).

use cdb_obsv::json::{parse, Json, JsonArray, JsonObject};
use cdb_sched::{AdmissionDecision, RejectReason};

/// A query submission, decoded from `POST /queries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Tenant the query bills against.
    pub tenant: String,
    /// The CQL text.
    pub sql: String,
    /// Money this query may spend, in cents.
    pub budget_cents: u64,
    /// Optional deadline in crowd rounds (maps to the executor's
    /// latency-constrained mode).
    pub deadline_rounds: Option<usize>,
}

impl Submit {
    /// Encode as the `POST /queries` body.
    pub fn encode(&self) -> String {
        let mut o = JsonObject::new()
            .str("tenant", &self.tenant)
            .str("sql", &self.sql)
            .u64("budget_cents", self.budget_cents);
        if let Some(d) = self.deadline_rounds {
            o = o.u64("deadline_rounds", d as u64);
        }
        o.finish()
    }

    /// Decode a `POST /queries` body. Errors are human-readable and end
    /// up in the `400` response.
    pub fn decode(body: &str) -> Result<Submit, String> {
        let j = parse(body)?;
        let tenant = j
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("missing string field `tenant`")?
            .to_string();
        let sql =
            j.get("sql").and_then(Json::as_str).ok_or("missing string field `sql`")?.to_string();
        let budget_cents = j
            .get("budget_cents")
            .and_then(Json::as_num)
            .ok_or("missing numeric field `budget_cents`")?;
        let budget_cents = whole("budget_cents", budget_cents, u64::MAX as f64)?;
        let deadline_rounds = match j.get("deadline_rounds") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let d = v.as_num().ok_or("`deadline_rounds` must be a number")?;
                Some(whole("deadline_rounds", d, usize::MAX as f64)? as usize)
            }
        };
        Ok(Submit { tenant, sql, budget_cents, deadline_rounds })
    }
}

/// `x` as a whole number below `bound` (an integer type's `MAX as f64`,
/// which rounds up to a power of two). Negative, fractional, non-finite and
/// out-of-range values are rejected, never truncated or saturated.
fn whole(field: &str, x: f64, bound: f64) -> Result<u64, String> {
    if x >= 0.0 && x < bound && x.fract() == 0.0 {
        Ok(x as u64)
    } else {
        Err(format!("`{field}` must be a whole number from 0 to {bound:e}, got {x}"))
    }
}

/// Encode an admission decision as the `POST /queries` response body.
/// Admitted and queued responses carry the assigned query id; rejected
/// ones carry the typed reason (and no id — the query never existed).
pub fn encode_decision(decision: &AdmissionDecision, query: Option<u64>) -> String {
    match decision {
        AdmissionDecision::Admitted => {
            let mut o = JsonObject::new().str("decision", "admitted");
            if let Some(q) = query {
                o = o.u64("query", q);
            }
            o.finish()
        }
        AdmissionDecision::Queued { position } => {
            let mut o = JsonObject::new().str("decision", "queued");
            if let Some(q) = query {
                o = o.u64("query", q);
            }
            o.u64("position", *position as u64).finish()
        }
        AdmissionDecision::Rejected(reason) => {
            let o = JsonObject::new().str("decision", "rejected").str("reason", reason.kind());
            match reason {
                RejectReason::BudgetExceeded { needed, available } => {
                    o.u64("needed_cents", *needed).u64("available_cents", *available).finish()
                }
                RejectReason::QueueFull { capacity } => {
                    o.u64("capacity", *capacity as u64).finish()
                }
                RejectReason::Infeasible => o.finish(),
            }
        }
    }
}

/// The HTTP status an admission decision travels under: `200` for
/// admitted/queued, `429` for backpressure (budget/queue), `422` for a
/// query that could never run.
pub fn decision_status(decision: &AdmissionDecision) -> u16 {
    match decision {
        AdmissionDecision::Admitted | AdmissionDecision::Queued { .. } => 200,
        AdmissionDecision::Rejected(RejectReason::Infeasible) => 422,
        AdmissionDecision::Rejected(_) => 429,
    }
}

/// One line of a query's NDJSON binding stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Bindings that became answers in this crowd round (each binding is
    /// the node ids of its tuple vertices, in plan order). A binding
    /// appears in at most one `round` event per query.
    Round {
        /// 1-based crowd round (the final quality pass may repeat the
        /// last round number as a flush).
        round: u64,
        /// The newly-resolved bindings, in canonical (sorted) order.
        new: Vec<Vec<u64>>,
    },
    /// Bindings previously streamed that the final quality pass (EM +
    /// Bayesian recoloring) withdrew. Empty for the default
    /// majority-vote pipeline, whose coloring is monotone.
    Retract {
        /// The withdrawn bindings, in canonical order.
        bindings: Vec<Vec<u64>>,
    },
    /// Terminal line of a successful (or cancelled) query.
    Done {
        /// Crowd rounds consumed.
        rounds: u64,
        /// Distinct tasks asked.
        tasks: u64,
        /// Worker assignments collected.
        assignments: u64,
        /// Final answer-binding count (after retractions).
        bindings: u64,
        /// True when the query was cancelled mid-run (client disconnect
        /// or explicit cancel); the stream holds a prefix of the run.
        cancelled: bool,
        /// Cents released back to the tenant: the pessimistic admission
        /// hold minus what the run actually spent.
        refund_cents: u64,
    },
    /// Terminal line of a failed query (e.g. retry budget exhausted
    /// under fault injection). The admission hold is fully refunded.
    Error {
        /// The runtime error, rendered.
        message: String,
    },
}

fn bindings_json(bs: &[Vec<u64>]) -> String {
    let mut arr = JsonArray::new();
    for b in bs {
        let mut inner = JsonArray::new();
        for &n in b {
            inner = inner.u64(n);
        }
        arr = arr.raw(&inner.finish());
    }
    arr.finish()
}

fn decode_bindings(j: &Json) -> Result<Vec<Vec<u64>>, String> {
    let arr = j.as_arr().ok_or("bindings must be an array")?;
    arr.iter()
        .map(|b| {
            let inner = b.as_arr().ok_or("binding must be an array")?;
            inner
                .iter()
                .map(|n| {
                    n.as_num()
                        .map(|v| v as u64)
                        .ok_or_else(|| "node id must be a number".to_string())
                })
                .collect()
        })
        .collect()
}

impl StreamEvent {
    /// Encode as one NDJSON line, trailing newline included.
    pub fn encode(&self) -> String {
        let mut s = match self {
            StreamEvent::Round { round, new } => JsonObject::new()
                .str("event", "round")
                .u64("round", *round)
                .raw("new", &bindings_json(new))
                .finish(),
            StreamEvent::Retract { bindings } => JsonObject::new()
                .str("event", "retract")
                .raw("bindings", &bindings_json(bindings))
                .finish(),
            StreamEvent::Done { rounds, tasks, assignments, bindings, cancelled, refund_cents } => {
                JsonObject::new()
                    .str("event", "done")
                    .u64("rounds", *rounds)
                    .u64("tasks", *tasks)
                    .u64("assignments", *assignments)
                    .u64("bindings", *bindings)
                    .bool("cancelled", *cancelled)
                    .u64("refund_cents", *refund_cents)
                    .finish()
            }
            StreamEvent::Error { message } => {
                JsonObject::new().str("event", "error").str("message", message).finish()
            }
        };
        s.push('\n');
        s
    }

    /// Decode one NDJSON line (the client side).
    pub fn decode(line: &str) -> Result<StreamEvent, String> {
        let j = parse(line.trim_end())?;
        let num = |key: &str| -> Result<u64, String> {
            j.get(key).and_then(Json::as_num).map(|v| v as u64).ok_or(format!("missing `{key}`"))
        };
        match j.get("event").and_then(Json::as_str) {
            Some("round") => Ok(StreamEvent::Round {
                round: num("round")?,
                new: decode_bindings(j.get("new").ok_or("missing `new`")?)?,
            }),
            Some("retract") => Ok(StreamEvent::Retract {
                bindings: decode_bindings(j.get("bindings").ok_or("missing `bindings`")?)?,
            }),
            Some("done") => Ok(StreamEvent::Done {
                rounds: num("rounds")?,
                tasks: num("tasks")?,
                assignments: num("assignments")?,
                bindings: num("bindings")?,
                cancelled: matches!(j.get("cancelled"), Some(Json::Bool(true))),
                refund_cents: num("refund_cents")?,
            }),
            Some("error") => Ok(StreamEvent::Error {
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("missing `message`")?
                    .to_string(),
            }),
            other => Err(format!("unknown stream event {other:?}")),
        }
    }
}

/// Encode an error body (`{"error": ...}`) for 4xx/5xx responses.
pub fn encode_error(message: &str) -> String {
    JsonObject::new().str("error", message).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrips() {
        let s = Submit {
            tenant: "acme".into(),
            sql: "SELECT * FROM T".into(),
            budget_cents: 500,
            deadline_rounds: Some(12),
        };
        assert_eq!(Submit::decode(&s.encode()).unwrap(), s);
        let no_deadline = Submit { deadline_rounds: None, ..s };
        assert_eq!(Submit::decode(&no_deadline.encode()).unwrap(), no_deadline);
    }

    #[test]
    fn submit_decode_rejects_numbers_it_would_truncate() {
        let decode = |budget: &str, deadline: &str| {
            Submit::decode(&format!(
                "{{\"tenant\":\"t\",\"sql\":\"q\",\"budget_cents\":{budget},\"deadline_rounds\":{deadline}}}"
            ))
        };
        for bad in ["-5", "12.7", "1e300", "1e999", "-1e999", "18446744073709551616"] {
            let err = decode(bad, "null").unwrap_err();
            assert!(err.starts_with("`budget_cents` must be a whole number"), "{bad}: {err}");
        }
        for bad in ["-3", "0.5", "1e300", "1e999"] {
            let err = decode("5", bad).unwrap_err();
            assert!(err.starts_with("`deadline_rounds` must be a whole number"), "{bad}: {err}");
        }
        let ok = decode("0", "4").unwrap();
        assert_eq!((ok.budget_cents, ok.deadline_rounds), (0, Some(4)));
        assert_eq!(decode("1e3", "null").unwrap().budget_cents, 1_000);
    }

    #[test]
    fn submit_decode_reports_missing_fields() {
        assert!(Submit::decode("{\"tenant\":\"t\"}").unwrap_err().contains("sql"));
        assert!(Submit::decode("not json").is_err());
    }

    #[test]
    fn decision_bodies_are_stable() {
        assert_eq!(
            encode_decision(&AdmissionDecision::Admitted, Some(7)),
            "{\"decision\":\"admitted\",\"query\":7}"
        );
        assert_eq!(
            encode_decision(&AdmissionDecision::Queued { position: 2 }, Some(8)),
            "{\"decision\":\"queued\",\"query\":8,\"position\":2}"
        );
        let rej = AdmissionDecision::Rejected(RejectReason::BudgetExceeded {
            needed: 900,
            available: 100,
        });
        assert_eq!(
            encode_decision(&rej, None),
            "{\"decision\":\"rejected\",\"reason\":\"budget-exceeded\",\"needed_cents\":900,\"available_cents\":100}"
        );
        assert_eq!(decision_status(&rej), 429);
        assert_eq!(decision_status(&AdmissionDecision::Admitted), 200);
        assert_eq!(decision_status(&AdmissionDecision::Rejected(RejectReason::Infeasible)), 422);
    }

    #[test]
    fn stream_events_roundtrip() {
        let events = [
            StreamEvent::Round { round: 3, new: vec![vec![1, 5], vec![2, 6]] },
            StreamEvent::Retract { bindings: vec![vec![1, 5]] },
            StreamEvent::Done {
                rounds: 9,
                tasks: 40,
                assignments: 200,
                bindings: 3,
                cancelled: false,
                refund_cents: 12,
            },
            StreamEvent::Error { message: "retry budget exhausted".into() },
        ];
        for e in events {
            let line = e.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(StreamEvent::decode(&line).unwrap(), e);
        }
    }

    #[test]
    fn round_event_bytes_are_stable() {
        let e = StreamEvent::Round { round: 1, new: vec![vec![0, 9]] };
        assert_eq!(e.encode(), "{\"event\":\"round\",\"round\":1,\"new\":[[0,9]]}\n");
    }
}
