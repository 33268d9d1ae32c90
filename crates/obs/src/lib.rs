//! # antarex-obs — deterministic observability plane
//!
//! The ANTAREX stack is built around a monitoring loop: observe
//! extra-functional metrics, feed them back into knob selection. This
//! crate turns that lens on the stack itself — one place where cache
//! hits, breaker trips, chaos retries, select/learn spans, power-cap
//! decisions, and per-tenant SLO burn all land, replacing the ad-hoc
//! atomics and stat structs that previously drifted across `serve` and
//! `tuner`.
//!
//! Three pillars:
//!
//! * **Metrics** (`metrics`): counters, gauges, and log-bucketed
//!   histograms ([`hist`], p50/p95/p99/p999 with a provable ≤ 2.47%
//!   relative error) in a [`MetricsRegistry`] keyed by interned names.
//!   Handles are shared atomics — the instrumented module and the
//!   exposition read the same cell.
//! * **Spans** ([`span`]): hierarchical regions on **virtual
//!   timestamps** in a fixed-capacity ring buffer, folded into
//!   flamegraph format. Span times record work content, not queue
//!   placement, so traces are byte-identical at any worker count.
//! * **SLO burn** (`slo`): per-tenant error-budget burn rates over
//!   [`antarex_monitor::sla`].
//!
//! Two cross-layer pillars sit on top:
//!
//! * **Causal traces** (`trace`): a 128-bit [`TraceCtx`] derived
//!   from `(tenant, probe_seed, batch)` — no wall clock — propagates
//!   admission → serve → sched → VM → RTRM, collecting linked events
//!   in a bounded [`TraceStore`] with deterministic head-based
//!   sampling, exported as Chrome `trace_event` JSON or a text
//!   waterfall.
//! * **Energy attribution** (`energy`): per-request joules = direct
//!   VM-metered energy + a demand-weighted share of node static and
//!   cooling overhead, booked in integer nanojoules so that
//!   Σ attributed + idle ≡ the facility meter *to the last bit* per
//!   virtual window ([`EnergyLedger::conservation_holds`]).
//!
//! Everything is allocation-light on the hot path (atomic increments
//! and one mutex-guarded slot write) and deterministic on the read
//! path: snapshots, expositions, and folds are sorted by resolved
//! names, never by racy interning order. The determinism contract is
//! split by [`Scope`]: `Invariant` metrics (event counts) are
//! byte-identical across worker counts on the fault-free path;
//! `Timing` metrics (virtual latencies, makespans) are deterministic
//! per worker count. Experiment `o1` in `crates/bench` enforces both.

pub(crate) mod energy;
pub(crate) mod export;
pub mod hist;
pub(crate) mod metrics;
pub(crate) mod slo;
pub mod span;
pub(crate) mod trace;

pub use energy::{
    largest_remainder_split, nj_to_j, to_nj, EnergyLedger, EnergyModel, WindowSummary,
};
pub use export::{burn_exposition, exposition};
pub use hist::{Histogram, Snapshot as HistSnapshot, STANDARD_QUANTILES};
pub use metrics::{Counter, Gauge, MetricValue, MetricsRegistry, Scope};
pub(crate) use slo::SloBank;
pub use slo::SloVerdict;
pub use span::{SpanAt, SpanId, SpanName, Tracer};
pub use trace::{Layer, TraceCtx, TraceEvent, TraceId, TraceStore};

/// A complete observability plane: one registry, one tracer, one SLO
/// bank, one causal trace store, one energy ledger. Modules take cheap
/// handles out of it at wiring time and touch only atomics afterwards.
#[derive(Debug)]
pub struct ObsPlane {
    /// The metric registry.
    pub registry: MetricsRegistry,
    /// The span ring buffer.
    pub tracer: Tracer,
    /// Per-tenant SLO burn tracking.
    pub slo: SloBank,
    /// Cross-layer causal trace events.
    pub trace: TraceStore,
    /// Per-request energy attribution ledger.
    pub energy: EnergyLedger,
}

impl ObsPlane {
    /// A plane retaining `span_capacity` spans and tracking SLOs
    /// against `slo_target` (target good fraction, e.g. `0.999`).
    /// The trace store retains `4 × span_capacity` events at a 1/1
    /// sampling rate; `ObsPlane::with_trace` overrides both.
    pub fn new(span_capacity: usize, slo_target: f64) -> Self {
        ObsPlane::with_trace(span_capacity, slo_target, span_capacity * 4, 1)
    }

    /// A plane with explicit trace-store sizing: `trace_capacity`
    /// retained events, head-based sampling at `1/sample_every`.
    pub(crate) fn with_trace(
        span_capacity: usize,
        slo_target: f64,
        trace_capacity: usize,
        sample_every: u64,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new(span_capacity);
        let trace = TraceStore::new(trace_capacity, sample_every);
        // Drop accounting: ring overwrites and trace-store overflow
        // surface in the exposition instead of staying silent. Both
        // are pure functions of record order, hence worker-invariant.
        registry.attach_counter(
            "obs_spans_dropped_total",
            Scope::Invariant,
            tracer.dropped_counter(),
        );
        registry.attach_counter(
            "obs_trace_events_dropped_total",
            Scope::Invariant,
            trace.dropped_counter(),
        );
        ObsPlane {
            registry,
            tracer,
            slo: SloBank::new(slo_target),
            trace,
            energy: EnergyLedger::new(1024),
        }
    }

    /// Exposition restricted to [`Scope::Invariant`] metrics — the
    /// subset that must be byte-identical across worker counts on the
    /// fault-free path. SLO burn rows are included when they derive
    /// from invariant counts alone; here they are *excluded* because
    /// burn is checked against virtual latencies (timing-scoped).
    pub fn invariant_exposition(&self) -> String {
        export::exposition(&self.registry.snapshot(Some(Scope::Invariant)))
    }
}

impl Default for ObsPlane {
    /// 4096 retained spans, 99.9% SLO target.
    fn default() -> Self {
        ObsPlane::new(4096, 0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counters_surface_in_exposition() {
        let plane = ObsPlane::with_trace(1, 0.99, 1, 1);
        plane.tracer.record("a", None, SpanId::NONE, 0.0, 1.0);
        plane.tracer.record("b", None, SpanId::NONE, 1.0, 2.0);
        let ctx = TraceCtx::derive(1, 2, 3, 4, 1);
        for _ in 0..2 {
            plane.trace.record(TraceEvent {
                trace: ctx.id,
                tenant: 1,
                layer: Layer::Serve,
                name: "ev",
                start_s: 0.0,
                end_s: 1.0,
                value: 0.0,
                span: SpanId::NONE,
            });
        }
        let text = plane.invariant_exposition();
        assert!(text.contains("obs_spans_dropped_total 1"));
        assert!(text.contains("obs_trace_events_dropped_total 1"));
    }

    #[test]
    fn invariant_exposition_excludes_timing_and_burn() {
        let plane = ObsPlane::new(16, 0.99);
        plane
            .registry
            .counter("plane-test_inv_total", Scope::Invariant)
            .inc();
        plane
            .registry
            .histogram("plane-test_latency_seconds", Scope::Timing)
            .record(0.5);
        plane.slo.check_upper(1, "latency", 1.0, 2.0);
        let text = plane.invariant_exposition();
        assert!(text.contains("plane-test_inv_total 1"));
        assert!(!text.contains("plane-test_latency_seconds"));
        assert!(!text.contains("slo_burn_rate"));
    }
}
