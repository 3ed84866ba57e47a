//! Content-derived hierarchical span identifiers.
//!
//! A span id is a pure hash of *what the span is about* — its name and the
//! discriminating values along its path from the root (query id, round
//! number, task id, …) — never of thread identity, allocation order, or
//! wall-clock. Two replays of the same deterministic run therefore mint
//! identical ids regardless of thread count, which is what makes the
//! "sorted span streams are byte-identical at 1/4/8 threads" guarantee
//! possible at all.
//!
//! Hashing is FNV-1a over the name bytes and path values: tiny, stable,
//! and good enough — spans live in small per-query universes, so the
//! 64-bit space makes collisions a non-concern.

use crate::event::{Event, EventKind, KvList};
use crate::Trace;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A deterministic span identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The root of the span tree.
    pub const ROOT: SpanId = SpanId(FNV_OFFSET);

    /// The root span id.
    pub const fn root() -> SpanId {
        SpanId::ROOT
    }

    /// Derive a child id from a name and discriminating path values.
    /// `root().child("query", &[q]).child("round", &[r])` is stable for
    /// the same `(q, r)` no matter which thread computes it.
    pub fn child(self, name: &str, path: &[u64]) -> SpanId {
        let mut h = fnv1a(self.0, name.as_bytes());
        // Separator so ("ab", []) and ("a", [b…]) can't collide trivially.
        h = fnv1a(h, &[0xff]);
        for &v in path {
            h = fnv1a(h, &v.to_le_bytes());
        }
        SpanId(h)
    }

    /// XOR-mix a salt into the id. Used by
    /// [`WithContext`](crate::collect::WithContext) to give each query a
    /// disjoint id namespace while staying deterministic.
    pub fn salted(self, salt: u64) -> SpanId {
        SpanId(self.0 ^ salt)
    }

    /// The raw 64-bit id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A live span: emits an `Enter` event on creation and an `Exit` on
/// [`Span::close`]. Timestamps are explicit (virtual time), so the guard
/// pattern is manual rather than `Drop`-based — the runtime knows *its*
/// clock; this crate doesn't.
#[derive(Debug, Clone)]
pub struct Span {
    id: SpanId,
    name: &'static str,
    trace: Trace,
}

impl Span {
    /// Open a span under `parent`, emitting the `Enter` event at virtual
    /// time `at` with payload `kv`.
    pub fn enter(
        trace: &Trace,
        parent: SpanId,
        name: &'static str,
        path: &[u64],
        at: u64,
        kv: KvList,
    ) -> Span {
        let id = parent.child(name, path);
        trace.emit(Event { span: id, name, kind: EventKind::Enter, at, kv });
        Span { id, name, trace: trace.clone() }
    }

    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Emit an instant event inside this span.
    #[inline]
    pub fn event(&self, name: &'static str, at: u64, kv: KvList) {
        self.trace.emit(Event::instant(self.id, name, at, kv));
    }

    /// Open a child span.
    pub fn child(&self, name: &'static str, path: &[u64], at: u64, kv: KvList) -> Span {
        Span::enter(&self.trace, self.id, name, path, at, kv)
    }

    /// Close the span, emitting the `Exit` event at virtual time `at`.
    pub fn close(self, at: u64, kv: KvList) {
        self.trace.emit(Event { span: self.id, name: self.name, kind: EventKind::Exit, at, kv });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Ring, Trace};
    use crate::kv;
    use std::sync::Arc;

    #[test]
    fn ids_are_pure_functions_of_content() {
        let a = SpanId::root().child("query", &[3]).child("round", &[1]);
        let b = SpanId::root().child("query", &[3]).child("round", &[1]);
        assert_eq!(a, b);
        assert_ne!(a, SpanId::root().child("query", &[3]).child("round", &[2]));
        assert_ne!(a, SpanId::root().child("query", &[4]).child("round", &[1]));
    }

    #[test]
    fn name_and_path_do_not_collide_trivially() {
        let a = SpanId::root().child("ab", &[]);
        let b = SpanId::root().child("a", &[b'b' as u64]);
        assert_ne!(a, b);
    }

    #[test]
    fn salt_is_involutive_and_disjoint() {
        let id = SpanId::root().child("round", &[1]);
        let salted = id.salted(0xdead_beef);
        assert_ne!(id, salted);
        assert_eq!(salted.salted(0xdead_beef), id);
    }

    #[test]
    fn span_guard_emits_enter_event_exit() {
        let ring = Arc::new(Ring::with_capacity(64));
        let trace = Trace::collector(ring.clone());
        let span = Span::enter(&trace, SpanId::root(), "round", &[0], 100, kv![n => 4u64]);
        span.event("crowd.dispatch", 100, kv![task => 1u64]);
        let child = span.child("wave", &[1], 150, kv![]);
        child.close(200, kv![]);
        span.close(300, kv![ms => 200u64]);
        let evs = ring.drain();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].kind, EventKind::Enter);
        assert_eq!(evs[0].name, "round");
        assert_eq!(evs[1].name, "crowd.dispatch");
        assert_eq!(evs[4].kind, EventKind::Exit);
        assert_eq!(evs[4].at, 300);
        // The child's id is derived from the parent's.
        assert_eq!(evs[2].span, evs[0].span.child("wave", &[1]));
    }
}
