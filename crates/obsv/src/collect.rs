//! Event collection: the [`Collector`] trait, the cheap [`Trace`] handle,
//! context injection, fan-out, and the bounded [`Ring`].
//!
//! Design constraints, in order:
//! 1. **Never wait for space.** The ring is a capacity-bounded FIFO behind
//!    one short lock; a full ring *drops* the event and bumps a counter
//!    instead of waiting for a consumer.
//! 2. **Zero cost when off.** `Trace::off()` holds `None` — the emit path
//!    is one branch on an `Option`, no virtual call, no allocation.
//! 3. **Determinism.** Collectors only ever see `&Event`; nothing here
//!    introduces ordering or identity that differs between replays.

use crate::event::{Event, KvList};
use crate::span::{Span, SpanId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A sink for events. Implementations must be cheap and non-blocking —
/// they run inline on the hot paths of the runtime.
pub trait Collector: Send + Sync {
    /// Record one event. Must not block.
    fn record(&self, event: &Event);
}

/// Duplicate events to several collectors (e.g. `RuntimeMetrics` + a
/// ring for the Chrome trace).
pub struct Fanout {
    sinks: Vec<Arc<dyn Collector>>,
}

impl Fanout {
    /// Fan out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Collector>>) -> Self {
        Fanout { sinks }
    }
}

impl Collector for Fanout {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fanout").field("sinks", &self.sinks.len()).finish()
    }
}

/// The handle the instrumented code holds: either off (free) or an
/// `Arc<dyn Collector>`. Cloning is a refcount bump; `Debug` and
/// `Default` make it embeddable in config structs.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn Collector>>,
}

impl Trace {
    /// Tracing disabled: `emit` is a single `Option` branch.
    pub fn off() -> Trace {
        Trace { sink: None }
    }

    /// Trace into `collector`.
    pub fn collector(collector: Arc<dyn Collector>) -> Trace {
        Trace { sink: Some(collector) }
    }

    /// Whether any collector is attached.
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Combine with another trace: events go to both (no-ops collapse).
    pub fn and(&self, other: &Trace) -> Trace {
        match (&self.sink, &other.sink) {
            (None, None) => Trace::off(),
            (Some(_), None) => self.clone(),
            (None, Some(_)) => other.clone(),
            (Some(a), Some(b)) => {
                Trace::collector(Arc::new(Fanout::new(vec![a.clone(), b.clone()])))
            }
        }
    }

    /// Emit one event (no-op when off).
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Open a span under `parent` (see [`Span::enter`]).
    pub fn span(
        &self,
        parent: SpanId,
        name: &'static str,
        path: &[u64],
        at: u64,
        kv: KvList,
    ) -> Span {
        Span::enter(self, parent, name, path, at, kv)
    }

    /// Wrap this trace so every event gains `extra` kvs (existing keys are
    /// not overridden) and span ids are salted by `span_salt`. Off stays
    /// off. This is how per-query context (the `q` key) is injected once
    /// at query start instead of threaded through every call site.
    pub fn with_context(&self, extra: KvList, span_salt: u64) -> Trace {
        match &self.sink {
            None => Trace::off(),
            Some(sink) => {
                Trace::collector(Arc::new(WithContext { inner: sink.clone(), extra, span_salt }))
            }
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").field("on", &self.on()).finish()
    }
}

/// Collector wrapper injecting ambient context: appends missing kv pairs
/// and salts span ids so each query's spans live in a disjoint namespace.
pub struct WithContext {
    inner: Arc<dyn Collector>,
    extra: KvList,
    span_salt: u64,
}

impl WithContext {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Collector>, extra: KvList, span_salt: u64) -> Self {
        WithContext { inner, extra, span_salt }
    }
}

impl Collector for WithContext {
    fn record(&self, event: &Event) {
        let mut ev = *event;
        ev.span = ev.span.salted(self.span_salt);
        for (k, v) in self.extra.iter() {
            if !ev.kv.contains(k) {
                ev.kv.push(k, v);
            }
        }
        self.inner.record(&ev);
    }
}

impl fmt::Debug for WithContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WithContext")
            .field("extra", &self.extra)
            .field("span_salt", &self.span_salt)
            .finish()
    }
}

/// Bounded FIFO event buffer. `push` never waits for space: when the
/// ring is full the event is counted in [`Ring::dropped`] and discarded.
/// Capacity is rounded up to a power of two; the buffer grows only as
/// events arrive.
pub struct Ring {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Ring {
    /// Create a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Ring {
        Ring {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(2).next_power_of_two(),
            dropped: AtomicU64::new(0),
        }
    }

    /// The buffer; a poisoned lock still guards whole events.
    fn buf(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to append an event. Returns `false` (and counts the drop) if
    /// the ring is full.
    pub fn push(&self, event: Event) -> bool {
        let mut buf = self.buf();
        if buf.len() == self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        buf.push_back(event);
        true
    }

    /// Pop the oldest event, if any.
    pub fn pop(&self) -> Option<Event> {
        self.buf().pop_front()
    }

    /// Drain every buffered event in FIFO order.
    pub fn drain(&self) -> Vec<Event> {
        self.buf().drain(..).collect()
    }

    /// Number of events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Collector for Ring {
    fn record(&self, event: &Event) {
        self.push(*event);
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, KvList};
    use crate::kv;
    use crate::span::SpanId;
    use std::sync::Arc;
    use std::thread;

    fn ev(n: u64) -> Event {
        Event::instant(SpanId::root(), "t", n, kv![n => n])
    }

    #[test]
    fn ring_is_fifo() {
        let r = Ring::with_capacity(8);
        for i in 0..5 {
            assert!(r.push(ev(i)));
        }
        let out = r.drain();
        assert_eq!(out.len(), 5);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.at, i as u64);
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let r = Ring::with_capacity(4);
        for i in 0..4 {
            assert!(r.push(ev(i)));
        }
        assert!(!r.push(ev(99)));
        assert!(!r.push(ev(100)));
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.drain().len(), 4);
        // Space freed: pushes succeed again.
        assert!(r.push(ev(5)));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::with_capacity(5).capacity(), 8);
        assert_eq!(Ring::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let r = Arc::new(Ring::with_capacity(4096));
        let threads = 8;
        let per = 256;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = r.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        assert!(r.push(ev((t * per + i) as u64)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let out = r.drain();
        assert_eq!(out.len(), threads * per);
        assert_eq!(r.dropped(), 0);
        // Every payload arrived exactly once.
        let mut seen: Vec<u64> = out.iter().map(|e| e.at).collect();
        seen.sort_unstable();
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn concurrent_producers_and_consumer() {
        let r = Arc::new(Ring::with_capacity(64));
        let total = 4 * 500;
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                thread::spawn(move || {
                    let mut pushed = 0u64;
                    for i in 0..500 {
                        if r.push(ev((t * 500 + i) as u64)) {
                            pushed += 1;
                        }
                    }
                    pushed
                })
            })
            .collect();
        let consumer = {
            let r = r.clone();
            thread::spawn(move || {
                let mut got = 0u64;
                loop {
                    match r.pop() {
                        Some(_) => got += 1,
                        None => {
                            if got + r.dropped() >= total as u64 {
                                // May still race with in-flight pushes; settle.
                                if r.pop().is_none() {
                                    break;
                                }
                                got += 1;
                            }
                            thread::yield_now();
                        }
                    }
                }
                got
            })
        };
        let pushed: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        let got = consumer.join().unwrap() + r.drain().len() as u64;
        assert_eq!(pushed + r.dropped(), total as u64);
        assert_eq!(got, pushed);
    }

    #[test]
    fn trace_off_is_inert_and_and_composes() {
        let off = Trace::off();
        assert!(!off.on());
        off.emit(ev(1)); // no-op, must not panic

        let ring = Arc::new(Ring::with_capacity(8));
        let on = Trace::collector(ring.clone());
        assert!(on.on());
        assert!(!off.and(&Trace::off()).on());
        assert!(off.and(&on).on());
        assert!(on.and(&off).on());

        let ring2 = Arc::new(Ring::with_capacity(8));
        let both = on.and(&Trace::collector(ring2.clone()));
        both.emit(ev(7));
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring2.drain().len(), 1);
    }

    #[test]
    fn with_context_injects_without_overriding() {
        let ring = Arc::new(Ring::with_capacity(8));
        let t = Trace::collector(ring.clone()).with_context(kv![q => 9u64, site => "fleet"], 0x5a);
        t.emit(Event::instant(SpanId::root(), "x", 1, kv![task => 2u64]));
        t.emit(Event::instant(SpanId::root(), "y", 2, kv![q => 1u64]));
        let evs = ring.drain();
        assert_eq!(evs[0].get_u64("q"), Some(9));
        assert_eq!(evs[0].get("site").unwrap().as_str(), Some("fleet"));
        assert_eq!(evs[0].get_u64("task"), Some(2));
        // Caller-provided q shadows the injected one.
        assert_eq!(evs[1].get_u64("q"), Some(1));
        // Span ids are salted.
        assert_eq!(evs[0].span, SpanId::root().salted(0x5a));
        // Off stays off (and stays cheap).
        assert!(!Trace::off().with_context(kv![q => 1u64], 1).on());
    }

    #[test]
    fn fanout_duplicates_and_noop_ignores() {
        let a = Arc::new(Ring::with_capacity(8));
        let b = Arc::new(Ring::with_capacity(8));
        // An empty fan-out is the no-op sink.
        let f = Fanout::new(vec![a.clone(), b.clone(), Arc::new(Fanout::new(Vec::new()))]);
        f.record(&ev(3));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
    }

    #[test]
    fn ring_len_tracks_push_pop() {
        let r = Ring::with_capacity(8);
        assert!(r.is_empty());
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 2);
        r.pop();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn event_kind_preserved_through_ring() {
        let r = Ring::with_capacity(8);
        r.record(&Event {
            span: SpanId::root(),
            name: "round",
            kind: EventKind::Exit,
            at: 5,
            kv: KvList::new(),
        });
        assert_eq!(r.pop().unwrap().kind, EventKind::Exit);
    }
}
