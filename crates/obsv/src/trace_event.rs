//! Chrome `trace_event` JSON emission (Perfetto / `about:tracing`).
//!
//! Converts an event stream into the [Trace Event Format]: matched
//! `Enter`/`Exit` pairs become `"ph":"X"` complete events with a
//! duration, instants become `"ph":"i"`. The virtual clock is
//! milliseconds; trace_event timestamps are microseconds, so `ts = at *
//! 1000`. Rows are grouped so the timeline reads like the paper's
//! execution model: `pid` = query id, `tid` = worker id (0 for events
//! with no worker, e.g. round spans), with `process_name` metadata so
//! Perfetto labels each query's lane.
//!
//! [Trace Event Format]:
//! https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::attr::keys;
use crate::event::{canonical_sort, Event, EventKind};
use crate::json::{JsonArray, JsonObject};
use std::collections::BTreeSet;

fn pid(ev: &Event) -> u64 {
    ev.get_u64(keys::QUERY).unwrap_or(0)
}

fn tid(ev: &Event) -> u64 {
    ev.get_u64(keys::WORKER).unwrap_or(0)
}

/// Render `events` (any order; sorted canonically internally) as a Chrome
/// trace JSON document. Unmatched `Enter`s become zero-duration complete
/// events, so a truncated stream still loads.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut evs: Vec<Event> = events.to_vec();
    canonical_sort(&mut evs);

    let mut rows = JsonArray::new();
    let mut queries: BTreeSet<u64> = BTreeSet::new();

    // After canonical_sort a span's Enter sits directly before its
    // instants and Exit (same span id), so pairing is a linear scan.
    let mut i = 0;
    while i < evs.len() {
        let ev = &evs[i];
        queries.insert(pid(ev));
        match ev.kind {
            EventKind::Enter => {
                // Find the Exit for this span id.
                let mut dur = 0u64;
                let mut exit_kv = None;
                for later in &evs[i + 1..] {
                    if later.span == ev.span && later.kind == EventKind::Exit {
                        dur = later.at.saturating_sub(ev.at);
                        exit_kv = Some(later.kv);
                        break;
                    }
                    if later.span != ev.span {
                        break;
                    }
                }
                // Merge exit kvs (e.g. the closing `ms`/`ok`) into args.
                let mut merged = *ev;
                if let Some(kv) = exit_kv {
                    for (k, v) in kv.iter() {
                        if !merged.kv.contains(k) {
                            merged.kv.push(k, v);
                        }
                    }
                }
                let row = JsonObject::new()
                    .str("name", ev.name)
                    .str("ph", "X")
                    .u64("ts", ev.at * 1000)
                    .u64("dur", dur * 1000)
                    .u64("pid", pid(ev))
                    .u64("tid", tid(ev))
                    .raw("args", &merged.kv.args_json())
                    .finish();
                rows = rows.raw(&row);
            }
            EventKind::Instant => {
                let row = JsonObject::new()
                    .str("name", ev.name)
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("ts", ev.at * 1000)
                    .u64("pid", pid(ev))
                    .u64("tid", tid(ev))
                    .raw("args", &ev.kv.args_json())
                    .finish();
                rows = rows.raw(&row);
            }
            EventKind::Exit => {} // consumed by its Enter
        }
        i += 1;
    }

    // Metadata rows: name each query's process lane.
    for q in queries {
        let name_args = JsonObject::new().str("name", &format!("query {q}")).finish();
        let row = JsonObject::new()
            .str("name", "process_name")
            .str("ph", "M")
            .u64("pid", q)
            .u64("tid", 0)
            .raw("args", &name_args)
            .finish();
        rows = rows.raw(&row);
    }

    JsonObject::new().str("displayTimeUnit", "ms").raw("traceEvents", &rows.finish()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KvList;
    use crate::json::parse;
    use crate::kv;
    use crate::span::SpanId;

    #[test]
    fn enter_exit_pairs_become_complete_events() {
        let span = SpanId::root().child("round", &[0]);
        let evs = vec![
            Event { span, name: "round", kind: EventKind::Enter, at: 100, kv: kv![q => 3u64] },
            Event::instant(span, "crowd.dispatch", 100, kv![q => 3u64, worker => 2u64]),
            Event { span, name: "round", kind: EventKind::Exit, at: 250, kv: kv![ms => 150u64] },
        ];
        let json = chrome_trace(&evs);
        parse(&json).unwrap();
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ts":100000"#));
        assert!(json.contains(r#""dur":150000"#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""pid":3"#));
        assert!(json.contains(r#""tid":2"#));
        // Exit kvs merged into the complete event's args.
        assert!(json.contains(r#""ms":150"#));
        // Process metadata for the query lane.
        assert!(json.contains(r#""process_name""#));
        assert!(json.contains("query 3"));
    }

    #[test]
    fn unmatched_enter_still_loads() {
        let span = SpanId::root().child("round", &[1]);
        let evs =
            vec![Event { span, name: "round", kind: EventKind::Enter, at: 7, kv: KvList::new() }];
        let json = chrome_trace(&evs);
        parse(&json).unwrap();
        assert!(json.contains(r#""dur":0"#));
    }

    #[test]
    fn empty_stream_is_valid() {
        let json = chrome_trace(&[]);
        parse(&json).unwrap();
        assert!(json.contains("traceEvents"));
    }
}
