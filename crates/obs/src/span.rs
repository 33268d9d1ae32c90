//! Hierarchical spans on virtual timestamps.
//!
//! A span is one completed region of work — a request, a cache probe,
//! an evaluation — with a parent pointer, a tenant, and `[start, end]`
//! in **virtual seconds**. Because the serving stack schedules on
//! virtual time (PR 2), every timestamp here is a pure function of the
//! workload, so a trace is byte-identical run-to-run; the span model
//! additionally records *work content* rather than queue placement
//! (e.g. an eval span covers the probe's cost, not its slot on a
//! worker), which makes traces invariant across worker counts too.
//!
//! Spans land in a fixed-capacity ring buffer: recording is one
//! mutex-protected slot write, no allocation after construction, and
//! the oldest spans are overwritten on wraparound — bounded memory no
//! matter how long the service runs. A hot path names its spans by
//! [`SpanName`] (interned once, on first use) and records a parent with
//! its children under one lock ([`Tracer::record_family`]); the ids,
//! parents and names are the ones the same spans recorded one by one
//! through [`Tracer::record`] get.
//!
//! [`Tracer::folded`] aggregates the ring into folded-stack lines
//! (`root;child;leaf <weight>`), the input format of flamegraph
//! tooling; weights are per-span *self* time in integer nanoseconds so
//! the fold is exactly reproducible.

use crate::metrics::Counter;
use antarex_tuner::intern::{intern, SymbolId};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Identifier of a recorded span. `SpanId(0)` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel.
    pub const NONE: SpanId = SpanId(0);

    /// `true` for the root sentinel.
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One completed region of work on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// This span's id (monotone from 1 in record order).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// Interned span name.
    pub name: SymbolId,
    /// Owning tenant, if tenant-scoped.
    pub tenant: Option<u64>,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Virtual end time (seconds), `>= start_s`.
    pub end_s: f64,
}

impl SpanRecord {
    /// Span duration in virtual seconds.
    pub(crate) fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// A span name a hot path records under, interned on its first use
/// rather than when the program starts: interning order assigns every
/// later name its id, and the ids of knob names feed design-key hashes,
/// so interning a span name ahead of its first use would renumber every
/// name interned in between.
pub struct SpanName {
    name: &'static str,
    id: OnceLock<SymbolId>,
}

impl SpanName {
    /// A name not yet interned.
    pub const fn new(name: &'static str) -> Self {
        SpanName {
            name,
            id: OnceLock::new(),
        }
    }

    /// The interned id: the table's lock is taken on the first call
    /// only.
    pub fn id(&self) -> SymbolId {
        *self.id.get_or_init(|| intern(self.name))
    }
}

/// One span of a [`Tracer::record_family`]: name and `[start, end]` in
/// virtual seconds.
#[derive(Debug, Clone, Copy)]
pub struct SpanAt {
    /// Interned span name.
    pub name: SymbolId,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Virtual end time (seconds).
    pub end_s: f64,
}

struct Ring {
    slots: Vec<SpanRecord>,
    capacity: usize,
    head: usize,
    recorded: u64,
    next_id: u64,
}

impl Ring {
    /// Writes one span, assigning the next id. `end_s` is clamped up
    /// to `start_s`.
    fn push(
        &mut self,
        dropped: &Counter,
        span: SpanAt,
        tenant: Option<u64>,
        parent: SpanId,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.recorded += 1;
        let record = SpanRecord {
            id,
            parent,
            name: span.name,
            tenant,
            start_s: span.start_s,
            end_s: span.end_s.max(span.start_s),
        };
        if self.slots.len() < self.capacity {
            self.slots.push(record);
        } else {
            self.slots[self.head] = record;
            dropped.inc();
        }
        self.head = (self.head + 1) % self.capacity;
        id
    }
}

/// Fixed-capacity span recorder (see module docs).
pub struct Tracer {
    ring: Mutex<Ring>,
    dropped: Counter,
}

impl Tracer {
    /// A tracer keeping the most recent `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                recorded: 0,
                next_id: 1,
            }),
            dropped: Counter::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        match self.ring.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a completed span and returns its id for use as a
    /// child's `parent`. `end_s` is clamped up to `start_s` so a
    /// malformed interval can never produce negative durations.
    pub fn record(
        &self,
        name: &str,
        tenant: Option<u64>,
        parent: SpanId,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        let span = SpanAt {
            name: intern(name),
            start_s,
            end_s,
        };
        self.record_id(span, tenant, parent)
    }

    /// [`record`](Tracer::record) under an already-interned name.
    pub fn record_id(&self, span: SpanAt, tenant: Option<u64>, parent: SpanId) -> SpanId {
        self.lock().push(&self.dropped, span, tenant, parent)
    }

    /// Records `root` under `parent` and then each of `children` under
    /// `root`, all for one tenant and under one lock, and returns
    /// `root`'s id. The spans get the ids they would get recorded one
    /// by one in that order.
    pub fn record_family(
        &self,
        root: SpanAt,
        children: &[SpanAt],
        tenant: Option<u64>,
        parent: SpanId,
    ) -> SpanId {
        let mut ring = self.lock();
        let root_id = ring.push(&self.dropped, root, tenant, parent);
        for &child in children {
            ring.push(&self.dropped, child, tenant, root_id);
        }
        root_id
    }

    /// Spans lost to ring wraparound (each overwrite evicts one).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Handle to the drop counter, for adoption into a registry via
    /// `MetricsRegistry::attach_counter` so ring saturation shows up
    /// in the Prometheus exposition instead of staying silent.
    pub(crate) fn dropped_counter(&self) -> &Counter {
        &self.dropped
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Spans currently held (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// The retained spans in record order (oldest first).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = self.lock().slots.clone();
        out.sort_by_key(|span| span.id);
        out
    }

    /// Folded-stack aggregation of the retained spans.
    ///
    /// Each span contributes its *self* time — duration minus the summed
    /// durations of its retained children, clamped at zero — under the
    /// path `root;...;name`, weighted in integer nanoseconds. Spans
    /// whose parent was evicted from the ring are treated as roots.
    /// Lines are sorted by path, so the fold is a deterministic
    /// function of the retained span set.
    pub fn folded(&self) -> Vec<(String, u64)> {
        let spans = self.spans();
        let by_id: BTreeMap<SpanId, &SpanRecord> =
            spans.iter().map(|span| (span.id, span)).collect();
        let mut child_time: BTreeMap<SpanId, f64> = BTreeMap::new();
        for span in &spans {
            if !span.parent.is_none() && by_id.contains_key(&span.parent) {
                *child_time.entry(span.parent).or_insert(0.0) += span.duration_s();
            }
        }
        let mut folds: BTreeMap<String, u64> = BTreeMap::new();
        for span in &spans {
            let mut path = vec![span.name.name()];
            let mut cursor = span.parent;
            while let Some(parent) = by_id.get(&cursor) {
                path.push(parent.name.name());
                cursor = parent.parent;
            }
            path.reverse();
            let self_s =
                (span.duration_s() - child_time.get(&span.id).copied().unwrap_or(0.0)).max(0.0);
            let weight = (self_s * 1e9).round() as u64;
            *folds.entry(path.join(";")).or_insert(0) += weight;
        }
        folds.into_iter().collect()
    }

    /// Renders [`folded`](Tracer::folded) as newline-separated
    /// `path weight` lines — the flamegraph input format.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (path, weight) in self.folded() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("retained", &self.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_assign_monotone_ids() {
        let tracer = Tracer::new(8);
        let a = tracer.record("req", None, SpanId::NONE, 0.0, 1.0);
        let b = tracer.record("eval", Some(3), a, 0.2, 0.8);
        assert!(b > a);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, a);
        assert_eq!(spans[1].tenant, Some(3));
    }

    #[test]
    fn malformed_interval_is_clamped() {
        let tracer = Tracer::new(4);
        tracer.record("bad", None, SpanId::NONE, 5.0, 1.0);
        assert_eq!(tracer.spans()[0].duration_s(), 0.0);
    }

    #[test]
    fn wraparound_keeps_the_newest_spans() {
        let tracer = Tracer::new(3);
        for i in 0..7 {
            tracer.record("s", None, SpanId::NONE, i as f64, i as f64 + 1.0);
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.recorded(), 7);
        assert_eq!(tracer.dropped(), 4, "each overwrite counts one drop");
        let ids: Vec<u64> = tracer.spans().iter().map(|span| span.id.0).collect();
        assert_eq!(ids, vec![5, 6, 7], "oldest spans are overwritten");
    }

    #[test]
    fn no_drops_below_capacity() {
        let tracer = Tracer::new(8);
        tracer.record("s", None, SpanId::NONE, 0.0, 1.0);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn folded_self_time_subtracts_children() {
        let tracer = Tracer::new(8);
        let root = tracer.record("request", None, SpanId::NONE, 0.0, 1.0);
        tracer.record("select", None, root, 0.0, 0.25);
        tracer.record("eval", None, root, 0.25, 0.75);
        let folds = tracer.folded();
        let as_map: BTreeMap<&str, u64> = folds.iter().map(|(p, w)| (p.as_str(), *w)).collect();
        assert_eq!(as_map["request"], 250_000_000, "1.0 − 0.25 − 0.5 self");
        assert_eq!(as_map["request;select"], 250_000_000);
        assert_eq!(as_map["request;eval"], 500_000_000);
    }

    #[test]
    fn evicted_parent_makes_orphan_a_root() {
        let tracer = Tracer::new(1);
        let parent = tracer.record("parent", None, SpanId::NONE, 0.0, 2.0);
        tracer.record("child", None, parent, 0.0, 1.0); // evicts parent
        let folds = tracer.folded();
        assert_eq!(folds.len(), 1);
        assert_eq!(folds[0].0, "child", "orphan folds as a root");
    }

    #[test]
    fn id_and_family_recording_match_recording_by_name() {
        // a batch, a request with three children, an error request with
        // none, then one more span — through a ring small enough to
        // wrap, so the drop accounting is compared too
        let at = |name: &str, start_s: f64, end_s: f64| SpanAt {
            name: intern(name),
            start_s,
            end_s,
        };
        let children = [
            at("select", 0.0, 0.1),
            at("cache_probe", 0.1, 0.2),
            at("learn", 0.5, 0.4),
        ];
        let by_name = Tracer::new(5);
        let batch = by_name.record("batch", None, SpanId::NONE, 0.0, 2.0);
        let request = by_name.record("request", Some(7), batch, 0.0, 0.5);
        for child in &children {
            by_name.record(
                child.name.name(),
                Some(7),
                request,
                child.start_s,
                child.end_s,
            );
        }
        let failed = by_name.record("request", Some(8), batch, 1.0, 1.0);
        by_name.record("adapt", Some(7), batch, 2.0, 2.1);

        let by_id = Tracer::new(5);
        let batch = by_id.record_id(at("batch", 0.0, 2.0), None, SpanId::NONE);
        let family = by_id.record_family(at("request", 0.0, 0.5), &children, Some(7), batch);
        assert_eq!(family, request);
        let lone = by_id.record_family(at("request", 1.0, 1.0), &[], Some(8), batch);
        assert_eq!(lone, failed);
        by_id.record_id(at("adapt", 2.0, 2.1), Some(7), batch);

        assert_eq!(by_id.spans(), by_name.spans());
        assert_eq!(by_id.recorded(), by_name.recorded());
        assert_eq!(by_id.dropped(), 2);
        assert_eq!(by_name.dropped(), 2);
        assert_eq!(by_id.folded(), by_name.folded());
        let learn = by_id.spans()[2];
        assert_eq!(learn.name.name(), "learn");
        assert_eq!(learn.parent, request);
        assert_eq!(learn.duration_s(), 0.0, "clamped like record()");
    }

    #[test]
    fn a_span_name_interns_once() {
        static NAME: SpanName = SpanName::new("span-test-lazy-name");
        assert_eq!(NAME.id(), intern("span-test-lazy-name"));
        assert_eq!(NAME.id(), NAME.id());
    }

    #[test]
    fn folded_text_is_sorted_lines() {
        let tracer = Tracer::new(8);
        tracer.record("zeta", None, SpanId::NONE, 0.0, 1e-9);
        tracer.record("alpha", None, SpanId::NONE, 0.0, 2e-9);
        assert_eq!(tracer.folded_text(), "alpha 2\nzeta 1\n");
    }
}
