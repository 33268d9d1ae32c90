//! Deterministic cross-layer causal tracing.
//!
//! The ANTAREX stack is cross-layer by design: admission, the tuning
//! service, the eval pool's schedule, the metered VM, and the RTRM
//! power path each make decisions about the *same* request. This
//! module gives every request a compact causal identity — a
//! [`TraceCtx`] carrying a 128-bit [`TraceId`] — that is threaded
//! through all of those layers and collected into a bounded
//! [`TraceStore`].
//!
//! Two properties make the pipeline safe to leave on in production:
//!
//! * **Determinism.** A trace id is a pure function of
//!   `(tenant, probe_seed, batch ordinal, sequence-in-batch)` — no
//!   wall clock, no thread id, no allocation order. Ids (and therefore
//!   the sampling decision derived from them) are byte-identical at
//!   any physical worker count and under any steal policy.
//! * **Bounded cost.** Sampling is *head-based*: the decision is made
//!   once, from the id alone, when the context is derived; unsampled
//!   requests pay only the derivation (a few SplitMix64 rounds,
//!   gated ≤ 25 ns in `BENCH_energy_obs.json`). The store keeps the first
//!   `capacity` events and counts the rest in a drop counter exposed
//!   through the metrics registry — saturation is visible, never
//!   silent, and the retained prefix is deterministic because events
//!   are recorded in batch-replay order.
//!
//! Exporters: [`TraceStore::chrome_trace_json`] emits Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto) with
//! one "process" per tenant and one "thread" per stack layer;
//! [`TraceStore::waterfall`] renders a single trace as an aligned
//! text waterfall for terminal use.

use crate::metrics::Counter;
use crate::span::SpanId;
use std::sync::Mutex;

/// 128-bit causal trace identifier. `TraceId(0)` means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u128);

impl TraceId {
    /// The "no trace" sentinel.
    pub(crate) const NONE: TraceId = TraceId(0);

    /// Canonical 32-hex-digit rendering (W3C `trace-id` style).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// SplitMix64 finalizer: the avalanche stage used everywhere in the
/// repo where a cheap, well-distributed 64-bit mix is needed.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-request causal context, propagated by value through the stack.
///
/// `Copy` and 24 bytes: cheap enough to live inside every
/// `EvalJob`. `sampled` is the head-based sampling decision — layers
/// record trace events only when it is set, so the unsampled hot path
/// never touches the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The causal identity shared by all events of this request.
    pub id: TraceId,
    /// Owning tenant.
    pub tenant: u64,
    /// Head-based sampling decision, derived from `id` alone.
    pub sampled: bool,
}

impl TraceCtx {
    /// The "untraced" context (id zero, never sampled).
    pub const NONE: TraceCtx = TraceCtx {
        id: TraceId::NONE,
        tenant: 0,
        sampled: false,
    };

    /// Derives the context for one request.
    ///
    /// The id mixes `(tenant, probe_seed, batch, seq)` through two
    /// independent SplitMix64 lanes (one per 64-bit half), then forces
    /// the result non-zero so it can never collide with the sentinel.
    /// `sample_every = n` keeps deterministically ~1/n of traces;
    /// `0` and `1` keep everything.
    #[inline]
    pub fn derive(tenant: u64, probe_seed: u64, batch: u64, seq: u32, sample_every: u64) -> Self {
        let lo = mix64(
            tenant
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(probe_seed)
                ^ batch.rotate_left(32)
                ^ u64::from(seq),
        );
        let hi = mix64(lo ^ probe_seed.rotate_left(17) ^ batch.wrapping_mul(0xff51_afd7_ed55_8ccd));
        let raw = (u128::from(hi) << 64) | u128::from(lo);
        let id = TraceId(if raw == 0 { 1 } else { raw });
        let sampled = sample_every <= 1 || mix64(lo ^ hi).is_multiple_of(sample_every);
        TraceCtx {
            id,
            tenant,
            sampled,
        }
    }
}

/// The stack layer that produced a trace event. Renders as the
/// "thread" lane in the Chrome export and as the left gutter of the
/// waterfall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// `serve::admission` tier decision.
    Admission,
    /// `TuningService` request handling.
    Serve,
    /// Eval-pool / `sim::sched` job placement.
    Sched,
    /// `antarex-vm` executor segments.
    Vm,
    /// `rtrm` power/cap decisions.
    Rtrm,
}

impl Layer {
    /// Stable lane index (Chrome `tid`).
    pub(crate) fn index(self) -> usize {
        match self {
            Layer::Admission => 0,
            Layer::Serve => 1,
            Layer::Sched => 2,
            Layer::Vm => 3,
            Layer::Rtrm => 4,
        }
    }

    /// Human-readable lane label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Layer::Admission => "admission",
            Layer::Serve => "serve",
            Layer::Sched => "sched",
            Layer::Vm => "vm",
            Layer::Rtrm => "rtrm",
        }
    }
}

/// One recorded cross-layer event on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Causal identity this event belongs to.
    pub trace: TraceId,
    /// Owning tenant (Chrome `pid`).
    pub tenant: u64,
    /// Producing layer (Chrome `tid`).
    pub layer: Layer,
    /// Event name (static so recording never allocates).
    pub name: &'static str,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Virtual end time (seconds), clamped `>= start_s` on record.
    pub end_s: f64,
    /// Layer-specific scalar: joules for `Vm`/energy events, seconds
    /// of probe cost for `Sched` placements, watts for `Rtrm` caps.
    pub value: f64,
    /// Linked span in the virtual-time span ring, or [`SpanId::NONE`].
    pub span: SpanId,
}

struct StoreInner {
    events: Vec<TraceEvent>,
}

/// Bounded collector of [`TraceEvent`]s (see module docs).
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    dropped: Counter,
    capacity: usize,
    sample_every: u64,
}

impl TraceStore {
    /// A store retaining the first `capacity` events (min 1) of
    /// traces kept by head-based sampling at rate `1/sample_every`.
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        let capacity = capacity.max(1);
        TraceStore {
            inner: Mutex::new(StoreInner {
                events: Vec::with_capacity(capacity.min(4096)),
            }),
            dropped: Counter::new(),
            capacity,
            sample_every,
        }
    }

    /// Derives a request context using this store's sampling period.
    #[inline]
    pub fn derive(&self, tenant: u64, probe_seed: u64, batch: u64, seq: u32) -> TraceCtx {
        TraceCtx::derive(tenant, probe_seed, batch, seq, self.sample_every)
    }

    /// Records one event. Returns `true` when retained; past capacity
    /// the event is counted in [`dropped`](TraceStore::dropped)
    /// instead — keep-first retention, so the retained prefix is a
    /// deterministic function of record order.
    pub fn record(&self, event: TraceEvent) -> bool {
        let event = TraceEvent {
            end_s: event.end_s.max(event.start_s),
            ..event
        };
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.events.len() < self.capacity {
            inner.events.push(event);
            true
        } else {
            drop(inner);
            self.dropped.inc();
            false
        }
    }

    /// Events dropped because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Handle to the drop counter, for adoption into a registry via
    /// `MetricsRegistry::attach_counter`.
    pub(crate) fn dropped_counter(&self) -> &Counter {
        &self.dropped
    }

    /// Retained events (record order).
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.inner.lock() {
            Ok(guard) => guard.events.clone(),
            Err(poisoned) => poisoned.into_inner().events.clone(),
        }
    }

    /// Retained events of one trace (record order).
    pub(crate) fn events_for(&self, trace: TraceId) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .filter(|event| event.trace == trace)
            .collect()
    }

    /// Retained event count (≤ capacity).
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(guard) => guard.events.len(),
            Err(poisoned) => poisoned.into_inner().events.len(),
        }
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome `trace_event` JSON of the retained events.
    ///
    /// Each event becomes a complete (`ph:"X"`) slice with virtual
    /// microsecond timestamps, `pid` = tenant, `tid` = layer lane, and
    /// the trace id plus layer scalar under `args`. Load the output in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = event.start_s * 1e6;
            let dur_us = (event.end_s - event.start_s) * 1e6;
            out.push_str(&format!(
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{}\",\"value\":{:e},\"span\":{}}}}}",
                event.name,
                event.layer.label(),
                ts_us,
                dur_us,
                event.tenant,
                event.layer.index(),
                event.trace.to_hex(),
                event.value,
                event.span.0,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Text waterfall of one trace: every retained event on an aligned
    /// virtual-time axis, one row per event, lanes in the left gutter.
    pub fn waterfall(&self, trace: TraceId) -> String {
        let events = self.events_for(trace);
        if events.is_empty() {
            return format!("trace {} — no retained events\n", trace.to_hex());
        }
        let t0 = events
            .iter()
            .map(|e| e.start_s)
            .fold(f64::INFINITY, f64::min);
        let t1 = events
            .iter()
            .map(|e| e.end_s)
            .fold(f64::NEG_INFINITY, f64::max);
        let span_s = (t1 - t0).max(1e-12);
        const COLS: usize = 40;
        let mut out = format!(
            "trace {} (tenant {}) — {} events over {:.6} s\n",
            trace.to_hex(),
            events[0].tenant,
            events.len(),
            t1 - t0,
        );
        for event in &events {
            let lead = (((event.start_s - t0) / span_s) * COLS as f64).floor() as usize;
            let lead = lead.min(COLS - 1);
            let width = (((event.end_s - event.start_s) / span_s) * COLS as f64).ceil() as usize;
            let width = width.clamp(1, COLS - lead);
            let mut bar = String::with_capacity(COLS);
            bar.push_str(&" ".repeat(lead));
            bar.push_str(&"█".repeat(width));
            bar.push_str(&" ".repeat(COLS - lead - width));
            out.push_str(&format!(
                "  [{:<9}] |{}| {:>12.6}s +{:.6}s {} ({:e})\n",
                event.layer.label(),
                bar,
                event.start_s - t0,
                event.end_s - event.start_s,
                event.name,
                event.value,
            ));
        }
        out
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("retained", &self.len())
            .field("dropped", &self.dropped())
            .field("capacity", &self.capacity)
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(trace: TraceId, layer: Layer, start_s: f64, end_s: f64) -> TraceEvent {
        TraceEvent {
            trace,
            tenant: 7,
            layer,
            name: "ev",
            start_s,
            end_s,
            value: 1.0,
            span: SpanId::NONE,
        }
    }

    #[test]
    fn derive_is_pure_and_nonzero() {
        let a = TraceCtx::derive(3, 0xdead_beef, 11, 2, 1);
        let b = TraceCtx::derive(3, 0xdead_beef, 11, 2, 1);
        assert_eq!(a, b, "derivation is a pure function of its inputs");
        assert_ne!(a.id, TraceId::NONE);
        assert!(a.sampled, "sample_every=1 keeps everything");
        assert_eq!(a.tenant, 3);
    }

    #[test]
    fn derive_distinguishes_every_component() {
        let base = TraceCtx::derive(3, 5, 7, 9, 1).id;
        assert_ne!(base, TraceCtx::derive(4, 5, 7, 9, 1).id);
        assert_ne!(base, TraceCtx::derive(3, 6, 7, 9, 1).id);
        assert_ne!(base, TraceCtx::derive(3, 5, 8, 9, 1).id);
        assert_ne!(base, TraceCtx::derive(3, 5, 7, 10, 1).id);
    }

    #[test]
    fn sampling_is_head_based_and_roughly_proportional() {
        let mut kept = 0;
        for seq in 0..4000u32 {
            if TraceCtx::derive(1, 42, 0, seq, 4).sampled {
                kept += 1;
            }
        }
        assert!(
            (800..1200).contains(&kept),
            "~1/4 of 4000 traces kept, got {kept}"
        );
    }

    #[test]
    fn store_keeps_first_and_counts_drops() {
        let store = TraceStore::new(2, 1);
        let id = TraceId(9);
        assert!(store.record(event(id, Layer::Serve, 0.0, 1.0)));
        assert!(store.record(event(id, Layer::Vm, 1.0, 2.0)));
        assert!(!store.record(event(id, Layer::Rtrm, 2.0, 3.0)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped(), 1);
        assert_eq!(store.events()[0].layer, Layer::Serve);
    }

    #[test]
    fn malformed_interval_is_clamped() {
        let store = TraceStore::new(4, 1);
        store.record(event(TraceId(1), Layer::Sched, 5.0, 1.0));
        let got = store.events()[0];
        assert_eq!(got.end_s, 5.0);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let store = TraceStore::new(4, 1);
        let ctx = TraceCtx::derive(2, 3, 4, 5, 1);
        store.record(event(ctx.id, Layer::Admission, 0.5, 0.5));
        store.record(event(ctx.id, Layer::Vm, 0.5, 0.75));
        let json = store.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"vm\""));
        assert!(json.contains(&ctx.id.to_hex()));
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn waterfall_renders_each_event_row() {
        let store = TraceStore::new(8, 1);
        let id = TraceId(0xabc);
        store.record(event(id, Layer::Admission, 0.0, 0.0));
        store.record(event(id, Layer::Serve, 0.0, 2.0));
        store.record(event(id, Layer::Vm, 1.0, 2.0));
        let text = store.waterfall(id);
        assert_eq!(text.lines().count(), 4, "header + 3 rows");
        assert!(text.contains("[admission]"));
        assert!(text.contains("[vm       ]"));
        assert!(store.waterfall(TraceId(1)).contains("no retained events"));
    }
}
