//! The service's observability wiring: every serving-path metric,
//! span, and SLO check goes through one [`ServeObs`] plane.
//!
//! Counter handles registered here are handed to the modules that own
//! the events — the design-point cache, the breaker bank — so there is
//! exactly one cell per fact; the exposition and the module accessors
//! are two views of it. The span model records **work content** on
//! virtual timestamps (a probe's cost, a cache lookup's nominal cost),
//! never queue placement, so traces are byte-identical at any worker
//! count; queueing shows up only in the `Timing`-scoped latency and
//! makespan histograms.

use crate::store::TenantClass;
use antarex_obs::{Counter, Gauge, Histogram, ObsPlane, Scope, SloVerdict, SpanName};
use antarex_rtrm::powercap::PowercapObs;

/// The spans `serve_batch` records, by name.
pub(crate) static BATCH_SPAN: SpanName = SpanName::new("batch");
pub(crate) static EVAL_SPAN: SpanName = SpanName::new("eval");
pub(crate) static REQUEST_SPAN: SpanName = SpanName::new("request");
pub(crate) static SELECT_SPAN: SpanName = SpanName::new("select");
pub(crate) static CACHE_PROBE_SPAN: SpanName = SpanName::new("cache_probe");
pub(crate) static LEARN_SPAN: SpanName = SpanName::new("learn");
pub(crate) static ADAPT_SPAN: SpanName = SpanName::new("adapt");

/// Nominal virtual width of a `select` span: PR 4's measured indexed
/// feasibility-select cost (26 ns). Purely a trace annotation — it
/// never feeds back into any serving metric.
pub(crate) const SELECT_SPAN_S: f64 = 26e-9;

/// Nominal virtual width of a `cache_probe` span.
pub(crate) const CACHE_PROBE_SPAN_S: f64 = 40e-9;

/// Nominal virtual width of a `learn` (observe feedback) span.
pub(crate) const LEARN_SPAN_S: f64 = 50e-9;

/// Nominal virtual width of an `adapt` round span.
pub(crate) const ADAPT_SPAN_S: f64 = 100e-9;

/// Default per-tenant latency SLO threshold (virtual seconds) — the
/// navigation workload's standard 0.5 s answer budget.
pub(crate) const DEFAULT_SLO_LATENCY_S: f64 = 0.5;

/// Default per-request energy budget (joules of attributed facility
/// energy). Chosen well above a typical cached answer and around the
/// cost of a heavyweight fresh probe, so burn only accumulates on
/// genuinely expensive requests.
pub(crate) const DEFAULT_SLO_ENERGY_J: f64 = 10.0;

/// Default SLO target good fraction (99.9%).
pub(crate) const DEFAULT_SLO_TARGET: f64 = 0.999;

/// Default span-ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The serving stack's observability plane plus every pre-registered
/// instrument handle the hot path touches. Handles are shared atomics:
/// incrementing one here is the same cell the exposition reads.
#[derive(Debug)]
pub struct ServeObs {
    pub(crate) plane: ObsPlane,
    pub(crate) requests: Counter,
    pub(crate) served: Counter,
    pub(crate) shed: Counter,
    pub(crate) rejected: Counter,
    pub(crate) failed: Counter,
    pub(crate) cache_hit_responses: Counter,
    pub(crate) evaluated: Counter,
    pub(crate) retries: Counter,
    pub(crate) hedges: Counter,
    pub(crate) selects: Counter,
    pub(crate) learns: Counter,
    pub(crate) adapts: Counter,
    pub(crate) breaker_trips: Counter,
    pub(crate) admission_degraded: Counter,
    pub(crate) admission_shed: Counter,
    pub(crate) admission_transitions: Counter,
    pub(crate) scale_events: Counter,
    pub(crate) pool_capacity: Gauge,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_quarantined: Counter,
    pub(crate) powercap: PowercapObs,
    pub(crate) latency: Histogram,
    pub(crate) makespan: Histogram,
    pub(crate) sched_steals: Counter,
    pub(crate) sched_steal_fails: Counter,
    pub(crate) sched_queue_depth: Histogram,
    pub(crate) class_steals: [Counter; TenantClass::COUNT],
    pub(crate) class_makespan: [Histogram; TenantClass::COUNT],
    pub(crate) class_energy: [Histogram; TenantClass::COUNT],
    pub(crate) energy_facility_nj: Counter,
    pub(crate) energy_attributed_nj: Counter,
    pub(crate) energy_idle_nj: Counter,
    pub(crate) energy_windows: Counter,
    pub(crate) energy_slo_overruns: Counter,
    pub(crate) slo_latency_s: f64,
    pub(crate) slo_energy_j: f64,
}

impl ServeObs {
    /// Builds the plane and registers every serving metric.
    ///
    /// All counts are [`Scope::Invariant`] — on the fault-free path
    /// they are pure functions of the workload, independent of the
    /// pool's worker count. The latency and makespan histograms are
    /// [`Scope::Timing`]: they summarize the virtual schedule, which
    /// legitimately depends on how many virtual cores serve it.
    pub(crate) fn new(span_capacity: usize, slo_target: f64, slo_latency_s: f64) -> Self {
        let plane = ObsPlane::new(span_capacity, slo_target);
        let reg = &plane.registry;
        let inv = Scope::Invariant;
        ServeObs {
            requests: reg.counter("serve_requests_total", inv),
            served: reg.counter("serve_served_total", inv),
            shed: reg.counter("serve_shed_total", inv),
            rejected: reg.counter("serve_rejected_total", inv),
            failed: reg.counter("serve_failed_total", inv),
            cache_hit_responses: reg.counter("serve_cache_hit_responses_total", inv),
            evaluated: reg.counter("serve_evaluated_total", inv),
            retries: reg.counter("serve_retries_total", inv),
            hedges: reg.counter("serve_hedges_total", inv),
            selects: reg.counter("serve_selects_total", inv),
            learns: reg.counter("serve_learns_total", inv),
            adapts: reg.counter("serve_adapts_total", inv),
            breaker_trips: reg.counter("serve_breaker_trips_total", inv),
            // front-door decisions key off work content and virtual
            // time alone, so they are worker-count invariant too
            admission_degraded: reg.counter("serve_admission_degraded_total", inv),
            admission_shed: reg.counter("serve_admission_shed_total", inv),
            admission_transitions: reg.counter("serve_admission_transitions_total", inv),
            scale_events: reg.counter("serve_scale_events_total", inv),
            pool_capacity: reg.gauge("serve_pool_capacity_workers", inv),
            cache_hits: reg.counter("serve_cache_hits_total", inv),
            cache_misses: reg.counter("serve_cache_misses_total", inv),
            cache_quarantined: reg.counter("serve_cache_quarantined_total", inv),
            powercap: PowercapObs::register(reg),
            latency: reg.histogram("serve_latency_seconds", Scope::Timing),
            makespan: reg.histogram("serve_makespan_seconds", Scope::Timing),
            // scheduler metrics summarize the virtual schedule like the
            // makespan does, so they share its Timing scope
            sched_steals: reg.counter("serve_sched_steals_total", Scope::Timing),
            sched_steal_fails: reg.counter("serve_sched_steal_fails_total", Scope::Timing),
            sched_queue_depth: reg.histogram("serve_sched_queue_depth", Scope::Timing),
            class_steals: TenantClass::all().map(|class| {
                let name = format!("serve_sched_steals_{}_total", class.label());
                reg.counter(&name, Scope::Timing)
            }),
            class_makespan: TenantClass::all().map(|class| {
                let name = format!("serve_class_makespan_seconds_{}", class.label());
                reg.histogram(&name, Scope::Timing)
            }),
            // attributed energy is pure work content (probe joules plus
            // a demand-weighted overhead share) — worker-count invariant
            class_energy: TenantClass::all().map(|class| {
                let name = format!("serve_class_energy_joules_{}", class.label());
                reg.histogram(&name, inv)
            }),
            energy_facility_nj: reg.counter("serve_energy_facility_nj_total", inv),
            energy_attributed_nj: reg.counter("serve_energy_attributed_nj_total", inv),
            energy_idle_nj: reg.counter("serve_energy_idle_nj_total", inv),
            energy_windows: reg.counter("serve_energy_windows_total", inv),
            energy_slo_overruns: reg.counter("serve_energy_slo_overruns_total", inv),
            slo_latency_s,
            slo_energy_j: DEFAULT_SLO_ENERGY_J,
            plane,
        }
    }

    /// The underlying plane (registry + tracer + SLO bank).
    pub fn plane(&self) -> &ObsPlane {
        &self.plane
    }

    /// Exposition restricted to worker-count-invariant metrics — the
    /// byte-diffable subset of the o1 determinism contract.
    pub fn invariant_exposition(&self) -> String {
        self.plane.invariant_exposition()
    }

    /// Folded-stack rendering of the retained span ring.
    pub fn folded_trace(&self) -> String {
        self.plane.tracer.folded_text()
    }

    /// The latency SLO threshold checked per served response.
    pub fn slo_latency_s(&self) -> f64 {
        self.slo_latency_s
    }

    /// Admission tier transitions recorded so far.
    pub fn admission_transitions(&self) -> u64 {
        self.admission_transitions.get()
    }

    /// Autoscaler resize events recorded so far.
    pub fn scale_events(&self) -> u64 {
        self.scale_events.get()
    }

    /// Successful steal transactions in the virtual schedules so far.
    pub fn sched_steals(&self) -> u64 {
        self.sched_steals.get()
    }

    /// One served response's virtual latency checked against the
    /// tenant's latency SLO; `ok` means the SLO was met — the admission
    /// controller consumes the complement as its violation signal. The
    /// batch books its verdicts in the SLO bank in one call.
    pub(crate) fn latency_verdict(&self, tenant: u64, latency_s: f64) -> SloVerdict {
        SloVerdict {
            tenant,
            objective: "latency",
            threshold: self.slo_latency_s,
            ok: latency_s <= self.slo_latency_s,
        }
    }

    /// Attributed facility energy in the tenant-class histogram for
    /// `class` (p50/p95/p99 feed the Prometheus exposition).
    pub fn class_energy_snapshot(&self, class: TenantClass) -> antarex_obs::HistSnapshot {
        self.class_energy[class.index()].snapshot()
    }

    /// Energy-budget overruns recorded so far. This is the *observed*
    /// admission signal: the front door sees it next to latency burn
    /// but does not yet act on it.
    pub fn energy_slo_overruns(&self) -> u64 {
        self.energy_slo_overruns.get()
    }

    /// One served response's attributed energy checked against the
    /// per-request energy budget, counting an overrun. Burn accrues in
    /// the SLO bank under the `energy` objective — surfaced to the
    /// admission tier as an observed (not yet acting) signal alongside
    /// latency burn.
    pub(crate) fn energy_verdict(&self, tenant: u64, energy_j: f64) -> SloVerdict {
        let ok = energy_j <= self.slo_energy_j;
        if !ok {
            self.energy_slo_overruns.inc();
        }
        SloVerdict {
            tenant,
            objective: "energy",
            threshold: self.slo_energy_j,
            ok,
        }
    }
}

impl Default for ServeObs {
    fn default() -> Self {
        ServeObs::new(
            DEFAULT_SPAN_CAPACITY,
            DEFAULT_SLO_TARGET,
            DEFAULT_SLO_LATENCY_S,
        )
    }
}
