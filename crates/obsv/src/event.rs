//! The event record: a fixed-size, allocation-free unit of telemetry.
//!
//! Events are `Copy` and carry at most [`MAX_KV`] key/value pairs inline,
//! so emitting one from the hottest dispatch loop costs a handful of word
//! moves — no heap, no locks, no formatting. Keys and names are
//! `&'static str` (interned by the compiler); values are a small tagged
//! union. Everything that could make two replays differ (pointers, thread
//! ids, wall-clock) is deliberately unrepresentable.

use crate::span::SpanId;
use std::fmt;

/// Maximum number of key/value pairs carried inline by one event.
pub const MAX_KV: usize = 8;

/// A telemetry value. Deliberately closed: only deterministic,
/// replay-stable payloads are representable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned counter/id.
    U64(u64),
    /// Signed quantity (deltas).
    I64(i64),
    /// Real-valued quantity (entropy, confidence, cents fractions).
    F64(f64),
    /// Static string (enum-like tags: fault kinds, market names).
    Str(&'static str),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// The value as `u64` if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` if numeric (u64/i64 widen losslessly enough
    /// for attribution arithmetic).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a static string if it is one.
    pub fn as_str(&self) -> Option<&'static str> {
        match *self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical text form, used by [`Event::canonical_line`] and the
    /// JSON/Prometheus emitters. `f64` uses the shortest round-trippable
    /// form Rust's formatter produces, which is stable across runs.
    pub fn render(&self) -> String {
        match *self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => format!("{v}"),
            Value::Str(s) => s.to_string(),
            Value::Bool(b) => b.to_string(),
        }
    }
}

impl From<u64> for Value {
    #[inline]
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    #[inline]
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    #[inline]
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    #[inline]
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&'static str> for Value {
    #[inline]
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    #[inline]
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A fixed-capacity inline list of key/value pairs.
#[derive(Clone, Copy)]
pub struct KvList {
    pairs: [(&'static str, Value); MAX_KV],
    len: u8,
}

impl KvList {
    /// An empty list.
    #[inline]
    pub const fn new() -> Self {
        KvList { pairs: [("", Value::U64(0)); MAX_KV], len: 0 }
    }

    /// Append a pair. Silently drops past [`MAX_KV`] — hot paths must
    /// never panic because of telemetry; overflow is caught by the
    /// `debug_assert!` in tests.
    #[inline]
    pub fn push(&mut self, key: &'static str, value: Value) {
        debug_assert!((self.len as usize) < MAX_KV, "kv list overflow: dropping {key}");
        if (self.len as usize) < MAX_KV {
            self.pairs[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// Builder-style append.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.push(key, value.into());
        self
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.pairs[..self.len as usize].iter().copied()
    }

    /// Look up a key (first match wins, mirroring [`WithContext`]'s
    /// "caller kvs shadow injected context" rule).
    ///
    /// [`WithContext`]: crate::collect::WithContext
    #[inline]
    pub fn get(&self, key: &str) -> Option<Value> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The pairs as one JSON object, in insertion order — the `args` of
    /// both Chrome-trace writers.
    pub(crate) fn args_json(&self) -> String {
        let mut o = crate::json::JsonObject::new();
        for (k, v) in self.iter() {
            o = match v {
                Value::U64(x) => o.u64(k, x),
                Value::I64(x) => o.i64(k, x),
                Value::F64(x) => o.f64(k, x),
                Value::Str(s) => o.str(k, s),
                Value::Bool(b) => o.bool(k, b),
            };
        }
        o.finish()
    }
}

impl Default for KvList {
    fn default() -> Self {
        KvList::new()
    }
}

impl fmt::Debug for KvList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (k, v) in self.iter() {
            m.entry(&k, &v);
        }
        m.finish()
    }
}

/// Build a [`KvList`] from `key => value` pairs:
/// `kv![q => 3u64, kind => "dropout"]`. Keys are identifiers (stringified)
/// to keep call sites terse; values are anything `Into<Value>`.
#[macro_export]
macro_rules! kv {
    () => { $crate::event::KvList::new() };
    ($($key:ident => $val:expr),+ $(,)?) => {{
        let mut list = $crate::event::KvList::new();
        $(list.push(stringify!($key), $crate::event::Value::from($val));)+
        list
    }};
}

/// Phase of a span an event marks (or a standalone point event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed.
    Exit,
    /// Point-in-time event inside a span.
    Instant,
}

impl EventKind {
    /// Canonical one-letter tag (matches Chrome trace_event phases).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Enter => "B",
            EventKind::Exit => "E",
            EventKind::Instant => "i",
        }
    }
}

/// One telemetry record. `Copy`, fixed-size, heap-free.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The span this event belongs to (content-derived, deterministic).
    pub span: SpanId,
    /// Static event name (see [`crate::attr::names`]).
    pub name: &'static str,
    /// Enter/exit/instant.
    pub kind: EventKind,
    /// Virtual timestamp in milliseconds (the runtime's `SimTime`).
    pub at: u64,
    /// Inline payload.
    pub kv: KvList,
}

impl Event {
    /// A point event.
    #[inline]
    pub fn instant(span: SpanId, name: &'static str, at: u64, kv: KvList) -> Self {
        Event { span, name, kind: EventKind::Instant, at, kv }
    }

    /// Shorthand for `self.kv.get(key)`.
    #[inline]
    pub fn get(&self, key: &str) -> Option<Value> {
        self.kv.get(key)
    }

    /// Shorthand for a `u64`-typed kv.
    #[inline]
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.kv.get(key).and_then(|v| v.as_u64())
    }

    /// Canonical single-line text form. Two runs are "byte-identical"
    /// exactly when the canonical lines of their sorted event streams
    /// match; the determinism property test compares these strings.
    pub fn canonical_line(&self) -> String {
        use std::fmt::Write;
        let mut s =
            format!("{:016x} {} {} @{}", self.span.raw(), self.kind.tag(), self.name, self.at);
        for (k, v) in self.kv.iter() {
            let _ = write!(s, " {k}={}", v.render());
        }
        s
    }

    /// Sort key for canonical ordering: span id groups a span's events,
    /// then time, then enter-before-instant-before-exit, then name.
    pub fn canonical_key(&self) -> (u64, u64, u8, &'static str) {
        let phase = match self.kind {
            EventKind::Enter => 0,
            EventKind::Instant => 1,
            EventKind::Exit => 2,
        };
        (self.span.raw(), self.at, phase, self.name)
    }
}

/// Sort events into the canonical deterministic order (stable across
/// thread counts for content-derived span ids).
pub fn canonical_sort(events: &mut [Event]) {
    events.sort_by(|a, b| a.canonical_key().cmp(&b.canonical_key()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    #[test]
    fn kv_macro_builds_pairs_in_order() {
        let kv = kv![q => 7u64, kind => "dropout", conf => 0.5f64, ok => true];
        assert_eq!(kv.len(), 4);
        assert_eq!(kv.get("q"), Some(Value::U64(7)));
        assert_eq!(kv.get("kind"), Some(Value::Str("dropout")));
        assert_eq!(kv.get("conf"), Some(Value::F64(0.5)));
        assert_eq!(kv.get("ok"), Some(Value::Bool(true)));
        assert_eq!(kv.get("missing"), None);
    }

    #[test]
    fn kv_first_match_wins_on_duplicate_keys() {
        let kv = kv![q => 1u64].with("q", 2u64);
        assert_eq!(kv.get("q"), Some(Value::U64(1)));
    }

    #[test]
    fn kv_list_is_bounded() {
        let mut kv = KvList::new();
        for _ in 0..MAX_KV {
            kv.push("k", Value::U64(0));
        }
        assert_eq!(kv.len(), MAX_KV);
        // Release builds drop silently rather than panic.
        if cfg!(not(debug_assertions)) {
            kv.push("overflow", Value::U64(1));
            assert_eq!(kv.len(), MAX_KV);
        }
    }

    #[test]
    fn value_conversions_and_accessors() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(3u32).as_u64(), Some(3));
        assert_eq!(Value::from(-2i64).as_f64(), Some(-2.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(1.5f64).as_f64(), Some(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Str("x").as_u64(), None);
    }

    #[test]
    fn canonical_line_is_stable() {
        let span = SpanId::root().child("round", &[3]);
        let ev = Event::instant(span, "crowd.dispatch", 120, kv![task => 5u64, worker => 2u64]);
        let line = ev.canonical_line();
        assert_eq!(line, ev.canonical_line());
        assert!(line.contains("i crowd.dispatch @120"));
        assert!(line.ends_with("task=5 worker=2"));
    }

    #[test]
    fn canonical_sort_orders_by_span_then_time_then_phase() {
        let a = SpanId::root().child("round", &[1]);
        let b = SpanId::root().child("round", &[2]);
        let mut evs = vec![
            Event { span: b, name: "n", kind: EventKind::Exit, at: 10, kv: KvList::new() },
            Event { span: a, name: "n", kind: EventKind::Exit, at: 5, kv: KvList::new() },
            Event { span: a, name: "n", kind: EventKind::Enter, at: 5, kv: KvList::new() },
            Event { span: b, name: "n", kind: EventKind::Enter, at: 1, kv: KvList::new() },
        ];
        canonical_sort(&mut evs);
        // Within each span: enter before exit at the same/earlier time.
        let phases: Vec<(u64, &str)> = evs.iter().map(|e| (e.span.raw(), e.kind.tag())).collect();
        let a_pos: Vec<usize> = (0..4).filter(|&i| phases[i].0 == a.raw()).collect();
        assert_eq!(evs[a_pos[0]].kind, EventKind::Enter);
        assert_eq!(evs[a_pos[1]].kind, EventKind::Exit);
    }
}
