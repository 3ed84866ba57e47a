//! Cross-query crowd-answer reuse (§5.1 cost control, extended with the
//! CDAS answer-reuse idea of Liu et al. and the transitive-relation
//! leverage of Wang et al.).
//!
//! The unit of reuse is a *measure-qualified value pair*: a crowd
//! join-check asks whether two string values are equivalent **under a
//! particular predicate** (its similarity measure), so the cache key is
//! `(measure, normalized value pair)` — two edges comparing the same
//! labels under different predicates never conflate, and each measure
//! forms its own equivalence relation. Within one measure, [`ReuseCache`]
//! interns normalized values and layers a [`cdb_graph::EntailmentGraph`]
//! over them: recorded `yes` answers union components, recorded `no`
//! answers add negative edges, and a lookup resolves to
//!
//! * **Cached** — the exact pair was answered before (depth 1),
//! * **Transitive** — entailed equal through a chain of positives,
//! * **Negative** — entailed distinct through positives plus one negative,
//!
//! each with the entailment depth (answers chained through) as provenance.
//!
//! # Determinism
//!
//! Concurrent queries must not observe each other's in-flight answers or
//! replay breaks (which query "wins" a cache slot would depend on thread
//! scheduling). The runtime therefore takes a [`ReuseCache::snapshot`] once
//! per fleet run, hands every query its own [`ReuseSession`], and after the
//! pool joins, [`ReuseCache::absorb`]s the sessions of *successful* queries
//! *in query-id order* — first writer wins on conflicting answers, and a
//! query that failed with a runtime error contributes nothing (its colors
//! past the error point carry no crowd evidence). Per-query outcomes are
//! thus a pure function of (config, job, snapshot), independent of thread
//! count; cross-query reuse compounds across sequential fleet runs sharing
//! one cache.
//!
//! # Cost
//!
//! A session shares the cache's value ids (one `Arc` map, measure →
//! normalized value → id) and its [`EntailmentGraph`], whose clones copy
//! a node on their first write to it. A session adds its new values to a
//! private map of the same shape — values are only ever added, so nothing
//! shared is copied — and `snapshot()` is O(1) whatever the cache holds.
//! The runtime releases every session before absorbing, so `absorb` writes
//! the shared map and graph in place. When sessions and `absorb`
//! deep-cloned the whole store instead, the median cold `fleet_durable`
//! pass (2-core container, ≈ 92,000 facts) took 57.7 ms, against 9.3 ms
//! with per-element copy-on-write.
//!
//! A distinct value is allocated once, as the `Arc<str>` that is both its
//! interner key and its name in the cache's transcript. [`normalize`]
//! borrows input already in normal form, so replaying settled facts
//! allocates only for values and measures not seen before.

use cdb_graph::{Assertion, Entailment, EntailmentGraph};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Normalize a value for cache keying: trim, lowercase, collapse runs of
/// whitespace. Two spellings that normalize equal share one interned id.
/// Input already in normal form is borrowed, not copied.
pub fn normalize(s: &str) -> Cow<'_, str> {
    if is_normal(s) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(normalize_chars(s))
    }
}

/// True when [`normalize_chars`] would return `s` unchanged: no leading,
/// trailing, doubled or non-space whitespace, and every char is its own
/// lowercase.
fn is_normal(s: &str) -> bool {
    let mut prev = ' '; // a leading space is trimmed
    let inner = s.chars().all(|ch| {
        let keeps = match ch {
            ' ' => prev != ' ',
            _ if ch.is_whitespace() => false,
            _ if ch.is_ascii() => !ch.is_ascii_uppercase(),
            _ => {
                let mut lower = ch.to_lowercase();
                lower.next() == Some(ch) && lower.next().is_none()
            }
        };
        prev = ch;
        keeps
    });
    inner && (s.is_empty() || prev != ' ')
}

/// The char loop behind [`normalize`].
fn normalize_chars(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut pending_space = false;
    for ch in s.trim().chars() {
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        for lc in ch.to_lowercase() {
            out.push(lc);
        }
    }
    out
}

/// How a cache hit was derived — recorded with the inferred answer so the
/// replay transcript carries provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The exact normalized pair was answered before.
    Cached,
    /// Entailed equal via a positive chain of `depth` recorded answers.
    Transitive {
        /// Recorded answers the positive chain passes through.
        depth: usize,
    },
    /// Entailed distinct via `depth` recorded answers (one negative plus
    /// the positive paths connecting to it).
    Negative {
        /// Recorded answers the proof passes through.
        depth: usize,
    },
}

impl Provenance {
    /// Number of prior crowd answers the inference chained through.
    pub fn depth(&self) -> usize {
        match *self {
            Provenance::Cached => 1,
            Provenance::Transitive { depth } | Provenance::Negative { depth } => depth,
        }
    }

    /// Short label for events and transcripts.
    pub fn kind(&self) -> &'static str {
        match self {
            Provenance::Cached => "cached",
            Provenance::Transitive { .. } => "transitive",
            Provenance::Negative { .. } => "negative",
        }
    }
}

/// Outcome of consulting the reuse layer for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseOutcome {
    /// Resolved without dispatch: `same` is the entailed answer.
    Hit {
        /// The entailed answer: do the two values join?
        same: bool,
        /// How the answer was derived.
        provenance: Provenance,
    },
    /// Unknown — the task must go to the crowd.
    Miss,
}

/// Result of recording one crowd answer into a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// New fact, now part of the session's closure.
    Inserted,
    /// Already entailed; nothing changed.
    Duplicate,
    /// Contradicts the closure (noisy crowd); dropped and counted.
    Conflict,
}

/// One recorded crowd answer: `(measure, left, right, same)`, values
/// normalized.
type AnswerRec = (String, String, String, bool);

/// One answer in the cache's transcript: the measure, the two normalized
/// values and the decided label.
type Answer = (Arc<str>, Arc<str>, Arc<str>, bool);

/// One measure's interned values: normalized value -> id.
type Values = HashMap<Arc<str>, usize>;

/// Every measure's interned values.
type Ids = HashMap<Arc<str>, Values>;

/// Interned entailment store: per-measure value ids over one shared
/// entailment graph. Each measure's values occupy disjoint ids, so one
/// graph holds many independent equivalence relations. A clone shares
/// the ids and the graph with the original and copies only what it writes.
#[derive(Debug, Clone, Default)]
struct Store {
    /// Value ids shared with every session.
    ids: Arc<Ids>,
    /// A session's new values, which the shared map does not hold.
    own: Ids,
    graph: EntailmentGraph,
}

/// The values of `measure` in `ids`, made on first use, with the measure's
/// name: only a new measure allocates it.
fn values_of<'i>(ids: &'i mut Ids, measure: &str) -> (Arc<str>, &'i mut Values) {
    let name = match ids.get_key_value(measure) {
        Some((name, _)) => Arc::clone(name),
        None => {
            let name = Arc::<str>::from(measure);
            ids.insert(Arc::clone(&name), Values::new());
            name
        }
    };
    (name, ids.get_mut(measure).expect("made above"))
}

/// The id and name of normalized `norm` in `values`, interned into
/// `graph` if new.
fn intern(values: &mut Values, graph: &mut EntailmentGraph, norm: &str) -> (usize, Arc<str>) {
    if let Some((name, &id)) = values.get_key_value(norm) {
        return (id, Arc::clone(name));
    }
    let (id, name) = (graph.push(), Arc::<str>::from(norm));
    values.insert(Arc::clone(&name), id);
    (id, name)
}

/// Record one answer between interned ids.
fn assert(graph: &mut EntailmentGraph, a: usize, b: usize, same: bool) -> Recorded {
    let assertion = if same { graph.assert_same(a, b) } else { graph.assert_different(a, b) };
    match assertion {
        Assertion::Inserted => Recorded::Inserted,
        Assertion::Redundant => Recorded::Duplicate,
        Assertion::Contradiction => Recorded::Conflict,
    }
}

impl Store {
    /// The id and name of `value` under `measure`; a value the shared map
    /// lacks is interned into this store's own map.
    fn intern_own(&mut self, measure: &str, value: &str) -> (usize, Arc<str>) {
        let norm = normalize(value);
        let shared = self.ids.get(measure).and_then(|values| values.get_key_value(&*norm));
        if let Some((name, &id)) = shared {
            return (id, Arc::clone(name));
        }
        intern(values_of(&mut self.own, measure).1, &mut self.graph, &norm)
    }

    /// Pure lookup: never interns, never mutates — safe on the frozen
    /// snapshot shared across sessions.
    fn resolve(&self, measure: &str, left: &str, right: &str) -> ReuseOutcome {
        let (ln, rn) = (normalize(left), normalize(right));
        if ln == rn {
            // Identical normalized values are trivially the same entity —
            // free even on a cold cache.
            return ReuseOutcome::Hit { same: true, provenance: Provenance::Cached };
        }
        let (shared, own) = (self.ids.get(measure), self.own.get(measure));
        let id = |value: &str| shared.and_then(|v| v.get(value)).or_else(|| own?.get(value));
        let (Some(&a), Some(&b)) = (id(&ln), id(&rn)) else {
            return ReuseOutcome::Miss;
        };
        match self.graph.entails(a, b) {
            Entailment::Same { depth } => {
                let provenance =
                    if depth <= 1 { Provenance::Cached } else { Provenance::Transitive { depth } };
                ReuseOutcome::Hit { same: true, provenance }
            }
            Entailment::Different { depth } => {
                let provenance =
                    if depth <= 1 { Provenance::Cached } else { Provenance::Negative { depth } };
                ReuseOutcome::Hit { same: false, provenance }
            }
            Entailment::Unknown => ReuseOutcome::Miss,
        }
    }
}

/// Per-query view of the cache: a clone of the fleet-start store, sharing
/// its storage and copying only the entries this query writes. Absorbed
/// back into the shared [`ReuseCache`] in query-id order — failed queries'
/// sessions are discarded by the runtime, never absorbed.
#[derive(Debug, Clone, Default)]
pub struct ReuseSession {
    /// The snapshot plus this query's facts.
    store: Store,
    /// Facts recorded *by this session* (not inherited from the snapshot),
    /// replayed into the shared cache on absorb.
    fresh: Vec<AnswerRec>,
    hits: usize,
    depth_sum: usize,
    conflicts: usize,
}

impl ReuseSession {
    /// Resolve a pending join-check against everything known so far.
    /// Counts hits and accumulated entailment depth. Lookups never intern:
    /// unknown values leave the session untouched.
    pub fn resolve(&mut self, measure: &str, left: &str, right: &str) -> ReuseOutcome {
        let outcome = self.store.resolve(measure, left, right);
        if let ReuseOutcome::Hit { provenance, .. } = outcome {
            self.hits += 1;
            self.depth_sum += provenance.depth();
        }
        outcome
    }

    /// Record a crowd answer observed by this query.
    pub fn record(&mut self, measure: &str, left: &str, right: &str, same: bool) -> Recorded {
        let (a, l) = self.store.intern_own(measure, left);
        let (b, r) = self.store.intern_own(measure, right);
        let recorded = assert(&mut self.store.graph, a, b, same);
        match recorded {
            Recorded::Inserted => {
                self.fresh.push((measure.to_string(), l.to_string(), r.to_string(), same));
            }
            Recorded::Conflict => self.conflicts += 1,
            Recorded::Duplicate => {}
        }
        recorded
    }

    /// Drop this session's view of the cache, keeping its fresh facts and
    /// counters. Release every session before absorbing any, so `absorb`
    /// writes the cache in place instead of copying what sessions share.
    pub fn release(&mut self) {
        self.store = Store::default();
    }

    /// Tasks resolved without dispatch so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Sum of entailment depths over all hits.
    pub fn depth_sum(&self) -> usize {
        self.depth_sum
    }

    /// Crowd answers dropped because they contradicted the closure.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Invariant accessor: the facts recorded *by this session* (not
    /// inherited from the snapshot), as `(measure, left, right, same)`
    /// with values normalized — what [`ReuseCache::absorb`] would replay.
    pub fn fresh_facts(&self) -> &[(String, String, String, bool)] {
        &self.fresh
    }
}

/// Shared cross-query answer cache. Lock-cheap: queries never touch it
/// mid-flight; the runtime snapshots once per unit (O(1)) and
/// absorbs once per *successful* unit after the threads join.
///
/// Within one measure the cache assumes a single equivalence relation:
/// every recorded answer for a `(measure, value-pair)` key must mean the
/// same question. Jobs whose predicates compare values under different
/// semantics must use distinct measures or the later answer is dropped as
/// a [`Recorded::Conflict`].
#[derive(Debug, Default)]
pub struct ReuseCache {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    store: Store,
    /// Recorded answers in insertion order. Only *new* facts are appended.
    answers: Vec<Answer>,
    conflicts: usize,
}

impl Inner {
    /// Record `facts` in order; returns how many conflicted. A run of facts
    /// under one measure looks its interner up once.
    fn record_all<'a>(
        &mut self,
        facts: impl Iterator<Item = (&'a str, &'a str, &'a str, bool)>,
    ) -> usize {
        let Store { ids, graph, .. } = &mut self.store;
        let mut run: Option<(Arc<str>, &mut Values)> = None;
        let mut dropped = 0;
        for (measure, left, right, same) in facts {
            let (name, values) = match run.take() {
                Some((name, values)) if *name == *measure => (name, values),
                _ => values_of(Arc::make_mut(ids), measure),
            };
            let (a, l) = intern(values, graph, &normalize(left));
            let (b, r) = intern(values, graph, &normalize(right));
            match assert(graph, a, b, same) {
                Recorded::Inserted => self.answers.push((Arc::clone(&name), l, r, same)),
                Recorded::Conflict => dropped += 1,
                Recorded::Duplicate => {}
            }
            run = Some((name, values));
        }
        dropped
    }
}

impl ReuseCache {
    /// An empty cache.
    pub fn new() -> Self {
        ReuseCache::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("reuse cache poisoned")
    }

    /// A per-query session seeded with the cache's current contents.
    /// O(1): the session shares the cache's storage and copies only the
    /// entries it writes.
    pub fn snapshot(&self) -> ReuseSession {
        ReuseSession { store: self.lock().store.clone(), ..ReuseSession::default() }
    }

    /// Merge a finished session's fresh answers into the cache. Callers
    /// absorb sessions in query-id order so the first (lowest-id) writer
    /// wins conflicting answers deterministically; losers are counted.
    /// Only absorb sessions of queries that completed successfully — a
    /// failed query's post-error colors carry no crowd evidence.
    pub fn absorb(&self, session: &ReuseSession) {
        let facts = session.fresh.iter().map(|(m, l, r, same)| (&m[..], &l[..], &r[..], *same));
        let mut inner = self.lock();
        inner.conflicts += inner.record_all(facts);
    }

    /// Record settled `(measure, left, right, same)` facts straight into
    /// the cache in order: recovery's one pass. First writer wins as in
    /// [`absorb`](Self::absorb), but the dropped facts are not counted
    /// (that counter is absorb telemetry).
    pub fn replay<'a>(&self, facts: impl IntoIterator<Item = (&'a str, &'a str, &'a str, bool)>) {
        self.lock().record_all(facts.into_iter());
    }

    /// Distinct answers currently recorded.
    pub fn len(&self) -> usize {
        self.lock().answers.len()
    }

    /// True when no answers are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers dropped at absorb time because an earlier query's answer
    /// contradicted them.
    pub fn conflicts(&self) -> usize {
        self.lock().conflicts
    }

    /// Invariant accessor: every crowd-recorded answer in insertion order,
    /// as `(measure, left, right, same)` with values normalized. These are
    /// the *crowd-decided* facts — an external checker (the `cdb-sim`
    /// harness) verifies that no entailment-derived color contradicts
    /// them and, under perfect workers, that each matches ground truth.
    pub fn recorded(&self) -> Vec<(String, String, String, bool)> {
        let answer =
            |(m, l, r, same): &Answer| (m.to_string(), l.to_string(), r.to_string(), *same);
        self.lock().answers.iter().map(answer).collect()
    }

    /// Invariant accessor: re-resolve a pair against the current contents
    /// without mutating anything — the checker's view of what any future
    /// session would be entailed to answer.
    pub fn resolve(&self, measure: &str, left: &str, right: &str) -> ReuseOutcome {
        self.lock().store.resolve(measure, left, right)
    }
}

/// One crowd-bought answer with its provenance, in the shape the durable
/// answer log persists: the `(measure, value-pair)` key (normalized), the
/// decided label, and what it cost to buy (`votes` workers, `cents`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettledFact {
    /// Measure namespace the fact belongs to.
    pub measure: String,
    /// Normalized left value.
    pub left: String,
    /// Normalized right value.
    pub right: String,
    /// The crowd's decision: do the values match?
    pub same: bool,
    /// Worker votes bought for this fact.
    pub votes: u32,
    /// Cents paid for those votes.
    pub cents: u64,
}

/// Durability hook between the runtime and a persistent answer log.
///
/// The executor calls [`SettleSink::settle`] with a successful query's
/// fresh facts *before* absorbing them into the shared [`ReuseCache`]: an
/// answer becomes visible for cross-query reuse only once it is on stable
/// storage, so a crash can never have handed out a reuse hit that disk
/// does not remember. If the sink fails, the session is **not** absorbed
/// — the facts stay query-local and will be re-bought, which loses money
/// but never correctness. Failed or aborted queries are never settled at
/// all, so recovery cannot resurrect an answer the live engine discarded.
///
/// Errors are flattened to `String` so `cdb-core` needs no dependency on
/// the storage crate's error type.
pub trait SettleSink: Send + Sync {
    /// Durably record `facts` for query `query`; return only once they
    /// are fsync'd (or an error if durability could not be guaranteed).
    fn settle(&self, query: u64, facts: &[SettledFact]) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measure used throughout; an arbitrary predicate description.
    const M: &str = "R.v~R.v";

    #[test]
    fn normalize_folds_case_and_whitespace() {
        assert_eq!(normalize("  IBM   Corp \t"), "ibm corp");
        assert_eq!(normalize("ibm corp"), "ibm corp");
        assert_eq!(normalize(""), "");
        assert!(matches!(normalize("ibm corp"), Cow::Borrowed(_)));
    }

    /// Chars that trip a byte-level whitespace or case test: `'\u{b}'` is
    /// `char::is_whitespace` but not `u8::is_ascii_whitespace`; `'\u{85}'`
    /// and `'\u{a0}'` are non-ASCII whitespace; `'İ'` lowercases to two
    /// chars; `'ß'` is its own lowercase; `'Σ'` is not.
    const ALPHABET: [char; 15] =
        ['a', 'Z', '#', '7', ' ', ' ', '\t', '\r', '\u{b}', '\u{85}', '\u{a0}', 'İ', 'ß', 'Σ', 'é'];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]
        #[test]
        fn normalize_fast_path_equals_the_char_loop(
            picks in proptest::prelude::prop::collection::vec(0usize..ALPHABET.len(), 0..12),
        ) {
            let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let (norm, reference) = (normalize(&s), normalize_chars(&s));
            proptest::prop_assert_eq!(&*norm, &*reference, "input {:?}", s);
            // Normal form is a fixed point, and the fast path recognises it.
            let again = normalize(&norm);
            proptest::prop_assert!(matches!(again, Cow::Borrowed(_)), "{:?} copied", norm);
            proptest::prop_assert_eq!(&*again, &*norm);
        }
    }

    #[test]
    fn exact_repeat_is_a_cached_hit() {
        let mut s = ReuseSession::default();
        assert_eq!(s.resolve(M, "IBM", "I.B.M."), ReuseOutcome::Miss);
        s.record(M, "IBM", "I.B.M.", true);
        assert_eq!(
            s.resolve(M, "ibm", "I.B.M."),
            ReuseOutcome::Hit { same: true, provenance: Provenance::Cached }
        );
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn identical_normalized_values_hit_even_cold() {
        let mut s = ReuseSession::default();
        assert_eq!(
            s.resolve(M, "IBM  Corp", " ibm corp "),
            ReuseOutcome::Hit { same: true, provenance: Provenance::Cached }
        );
    }

    #[test]
    fn transitive_and_negative_entailment_resolve_unseen_pairs() {
        let mut s = ReuseSession::default();
        s.record(M, "a", "b", true);
        s.record(M, "b", "c", true);
        s.record(M, "c", "x", false);
        assert_eq!(
            s.resolve(M, "a", "c"),
            ReuseOutcome::Hit { same: true, provenance: Provenance::Transitive { depth: 2 } }
        );
        assert_eq!(
            s.resolve(M, "a", "x"),
            ReuseOutcome::Hit { same: false, provenance: Provenance::Negative { depth: 3 } }
        );
        assert_eq!(s.depth_sum(), 5);
    }

    #[test]
    fn measures_are_disjoint_namespaces() {
        // The same value pair under two measures is two independent facts:
        // no cross-measure hits, and opposite answers are NOT a conflict.
        let mut s = ReuseSession::default();
        s.record("title~title", "a", "b", true);
        assert_eq!(s.resolve("author~author", "a", "b"), ReuseOutcome::Miss);
        assert_eq!(s.record("author~author", "a", "b", false), Recorded::Inserted);
        assert!(matches!(s.resolve("title~title", "a", "b"), ReuseOutcome::Hit { same: true, .. }));
        assert!(matches!(
            s.resolve("author~author", "a", "b"),
            ReuseOutcome::Hit { same: false, .. }
        ));
        assert_eq!(s.conflicts(), 0);
    }

    #[test]
    fn conflicting_answers_are_dropped_and_counted() {
        let mut s = ReuseSession::default();
        s.record(M, "a", "b", true);
        assert_eq!(s.record(M, "a", "b", false), Recorded::Conflict);
        assert_eq!(s.conflicts(), 1);
        assert!(matches!(s.resolve(M, "a", "b"), ReuseOutcome::Hit { same: true, .. }));
    }

    #[test]
    fn snapshot_absorb_round_trip_compounds_knowledge() {
        let cache = ReuseCache::new();
        let mut s1 = cache.snapshot();
        s1.record(M, "a", "b", true);
        cache.absorb(&s1);
        assert_eq!(cache.len(), 1);

        let mut s2 = cache.snapshot();
        assert!(matches!(s2.resolve(M, "a", "b"), ReuseOutcome::Hit { same: true, .. }));
        s2.record(M, "b", "c", true);
        cache.absorb(&s2);

        let mut s3 = cache.snapshot();
        assert!(matches!(s3.resolve(M, "a", "c"), ReuseOutcome::Hit { same: true, .. }));
    }

    #[test]
    fn absorb_order_resolves_conflicts_first_writer_wins() {
        let cache = ReuseCache::new();
        let mut s1 = cache.snapshot();
        let mut s2 = cache.snapshot();
        s1.record(M, "a", "b", true);
        s2.record(M, "a", "b", false);
        cache.absorb(&s1);
        cache.absorb(&s2);
        assert_eq!(cache.conflicts(), 1);
        let mut s3 = cache.snapshot();
        assert!(matches!(s3.resolve(M, "a", "b"), ReuseOutcome::Hit { same: true, .. }));
    }

    #[test]
    fn sessions_share_the_snapshot_until_they_learn() {
        let cache = ReuseCache::new();
        let mut warmup = cache.snapshot();
        warmup.record(M, "a", "b", true);
        cache.absorb(&warmup);

        let mut s = cache.snapshot();
        assert!(matches!(s.resolve(M, "a", "b"), ReuseOutcome::Hit { .. }));
        assert_eq!(s.resolve(M, "x", "y"), ReuseOutcome::Miss);
        assert_eq!(s.record(M, "a", "b", true), Recorded::Duplicate);
        assert_eq!(s.record(M, "a", "b", false), Recorded::Conflict);
        assert_eq!(s.conflicts(), 1);
        assert!(s.fresh_facts().is_empty());
        // A new fact is the session's alone until it is absorbed.
        assert_eq!(s.record(M, "b", "c", true), Recorded::Inserted);
        assert!(matches!(s.resolve(M, "a", "c"), ReuseOutcome::Hit { same: true, .. }));
        assert_eq!(cache.resolve(M, "a", "c"), ReuseOutcome::Miss);
        // Absorbing a session with no fresh facts is a no-op.
        let mut idle = cache.snapshot();
        idle.resolve(M, "a", "b");
        cache.absorb(&idle);
        assert_eq!(cache.len(), 1);
    }

    /// Addresses of the storage a store shares with its clones: the value
    /// ids and the entailment graph's nodes.
    fn base_addrs(store: &Store) -> [usize; 2] {
        [Arc::as_ptr(&store.ids) as *const u8 as usize, store.graph.base_addr()]
    }

    #[test]
    fn a_learning_session_shares_the_cache_and_absorb_writes_in_place() {
        let cache = ReuseCache::new();
        let mut warm = cache.snapshot();
        for i in 0..10_000 {
            let (l, r) = (format!("v{i}"), format!("v{}", i + 1));
            assert_eq!(warm.record(M, &l, &r, i % 3 != 0), Recorded::Inserted);
        }
        warm.release();
        cache.absorb(&warm);
        assert_eq!(cache.len(), 10_000);
        let before = base_addrs(&cache.lock().store);

        let mut s = cache.snapshot();
        for (l, r, same) in [("x", "y", true), ("v10", "x", true), ("v20", "z", false)] {
            assert_eq!(s.record(M, l, r, same), Recorded::Inserted);
        }
        assert!(matches!(s.resolve(M, "v11", "y"), ReuseOutcome::Hit { same: true, .. }));
        assert_eq!(base_addrs(&s.store), before, "the session copied a shared base");

        s.release();
        cache.absorb(&s);
        assert_eq!(cache.len(), 10_003);
        assert!(matches!(cache.resolve(M, "v12", "y"), ReuseOutcome::Hit { same: true, .. }));
        assert_eq!(base_addrs(&cache.lock().store), before, "absorb copied a base");
    }
}
