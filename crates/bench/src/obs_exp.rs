//! Experiment O1: the deterministic observability plane.
//!
//! Proves the `antarex-obs` determinism contract on the serving tier:
//!
//! 1. **Worker invariance** — the same seeded workload is driven at
//!    1/2/4/8 pool workers; the invariant-scoped metric exposition and
//!    the folded span trace must be byte-identical across all four
//!    runs. Spans record virtual *work content* (probe cost, nominal
//!    lookup cost), never queue placement, which is what makes a trace
//!    diffable across thread counts.
//! 2. **Dual accounting** — the hardened service is served window by
//!    window under the R2 fault campaign; the per-batch report sums
//!    (the pre-migration accounting) are compared metric by metric
//!    against the registry counters. The serving stats and the
//!    exposition are two views of the same cells, so every row must
//!    match exactly.
//! 3. **SLO burn** — the per-tenant latency SLO burn rows computed from
//!    the driven run, demonstrating `monitor::sla` wired through the
//!    plane.
//!
//! Everything is virtual-time and seeded: the whole report reproduces
//! byte for byte, and CI compares it with its committed golden.

use crate::serve_exp::{scaling_row, ServeScale};
use crate::{fixed, head, ns_per_op, BenchFile};
use antarex_obs::{MetricValue, MetricsRegistry, Scope, SpanId, Tracer};
use antarex_serve::chaos::ChaosConfig;
use antarex_serve::driver::{Batching, Campaign, Cohort, DriveStats};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::service::ResilienceConfig;
use antarex_serve::{Evaluator, TuningService};
use antarex_sim::faults::FaultSchedule;
use std::fmt::Write as _;
use std::hint::black_box;

/// Size of one O1 run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObsScale {
    /// Concurrent tenant sessions.
    pub tenants: usize,
    /// Distinct workload archetypes shared among tenants.
    pub archetypes: usize,
    /// Virtual duration of each driven run, seconds.
    pub duration_s: f64,
    /// Mean request rate per tenant, Hz.
    pub rate_per_tenant_hz: f64,
    /// Pool worker counts swept by the invariance check.
    pub worker_counts: &'static [usize],
}

impl ObsScale {
    /// The full sweep printed by the `o1` experiment.
    pub(crate) fn full() -> Self {
        ObsScale {
            tenants: 32,
            archetypes: 8,
            duration_s: 120.0,
            rate_per_tenant_hz: 0.5,
            worker_counts: &[1, 2, 4, 8],
        }
    }

    /// A tiny sweep for smoke testing in `cargo test`.
    pub(crate) fn tiny() -> Self {
        ObsScale {
            tenants: 8,
            archetypes: 3,
            duration_s: 30.0,
            rate_per_tenant_hz: 0.4,
            worker_counts: &[1, 4],
        }
    }

    /// The driven campaign on a `workers`-wide pool.
    fn campaign(&self, seed: u64, workers: usize) -> Campaign {
        Campaign {
            cohorts: vec![Cohort::new(
                self.tenants,
                self.archetypes,
                self.rate_per_tenant_hz,
            )],
            ..Campaign::new(seed, self.duration_s, Batching::Window(10.0))
        }
        .workers(workers)
    }
}

/// Reads one service-wide counter from the registry by name.
pub(crate) fn counter_value<E: Evaluator>(service: &TuningService<E>, name: &str) -> u64 {
    service
        .obs()
        .plane()
        .registry
        .snapshot(None)
        .iter()
        .find_map(|m| match (m.name == name, &m.value) {
            (true, MetricValue::Counter(v)) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// One driven run's observability artifacts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObsRun {
    /// Pool workers the run used.
    pub workers: usize,
    /// The driven run's statistics.
    pub stats: DriveStats,
    /// Invariant-scoped metric exposition.
    pub invariant_exposition: String,
    /// Folded span trace.
    pub folded: String,
}

/// Drives the seeded workload at `workers` and captures the plane.
pub(crate) fn observed_run(seed: u64, scale: &ObsScale, workers: usize) -> ObsRun {
    let (service, stats) = scale.campaign(seed, workers).run(NavEvaluator::city(seed));
    ObsRun {
        workers,
        stats,
        invariant_exposition: service.obs().invariant_exposition(),
        folded: service.obs().folded_trace(),
    }
}

/// Whether the invariant exposition and the folded trace are
/// byte-identical across every worker count of the sweep.
pub(crate) fn invariance_holds(seed: u64, scale: &ObsScale) -> bool {
    let runs: Vec<ObsRun> = scale
        .worker_counts
        .iter()
        .map(|&w| observed_run(seed, scale, w))
        .collect();
    runs.windows(2).all(|pair| {
        pair[0].invariant_exposition == pair[1].invariant_exposition
            && pair[0].folded == pair[1].folded
    })
}

/// One dual-accounting row: a count summed from per-batch reports (the
/// pre-migration bookkeeping) against the registry counter it migrated
/// onto.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AccountingRow {
    /// Registry metric name.
    pub metric: &'static str,
    /// Sum over [`antarex_serve::BatchReport`]s and responses.
    pub report_sum: u64,
    /// The registry counter's value after the run.
    pub registry: u64,
}

/// Serves the R2 hardened fault campaign window by window, tallying
/// the batch reports the way the driver did before the migration, and
/// compares every figure against the registry.
pub(crate) fn dual_accounting(seed: u64, scale: &ObsScale) -> Vec<AccountingRow> {
    let schedule = FaultSchedule::generate(
        &crate::chaos_exp::serving_faults(seed),
        4,
        scale.duration_s + 60.0,
    );
    let campaign = Campaign {
        resilience: ResilienceConfig::hardened(),
        chaos: Some(ChaosConfig::new(schedule)),
        ..scale.campaign(seed, 4)
    };
    let service = campaign.build(NavEvaluator::city(seed));

    let events = campaign.arrivals();
    let (mut served, mut cache_hits, mut evaluated) = (0u64, 0u64, 0u64);
    let (mut shed, mut retries, mut hedges, mut quarantined) = (0u64, 0u64, 0u64, 0u64);
    campaign.drive(&service, &events, |_, report| {
        evaluated += report.evaluated as u64;
        shed += report.shed as u64;
        retries += report.retries;
        hedges += report.hedges;
        quarantined += report.quarantined;
        for answer in report.responses.iter().flatten() {
            served += 1;
            cache_hits += u64::from(answer.cache_hit);
        }
    });
    let per_breaker_trips: u64 = service
        .breakers()
        .snapshot()
        .iter()
        .map(|(_, b)| b.trips())
        .sum();

    let row = |metric: &'static str, report_sum: u64| AccountingRow {
        metric,
        report_sum,
        registry: counter_value(&service, metric),
    };
    vec![
        row("serve_requests_total", events.len() as u64),
        row("serve_served_total", served),
        row("serve_cache_hit_responses_total", cache_hits),
        row("serve_evaluated_total", evaluated),
        row("serve_shed_total", shed),
        row("serve_retries_total", retries),
        row("serve_hedges_total", hedges),
        row("serve_cache_quarantined_total", quarantined),
        row("serve_breaker_trips_total", per_breaker_trips),
    ]
}

/// Renders the full O1 report for one seed and scale.
pub(crate) fn o1_report(seed: u64, scale: &ObsScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "observability plane (seed {seed}, {} tenants, {:.0} s virtual, {:.2} Hz/tenant)",
        scale.tenants, scale.duration_s, scale.rate_per_tenant_hz
    );

    // 1. worker invariance: the exposition and the folded trace must
    // not move a byte as the pool scales
    let runs: Vec<ObsRun> = scale
        .worker_counts
        .iter()
        .map(|&w| observed_run(seed, scale, w))
        .collect();
    let reference = &runs[0];
    let _ = writeln!(
        out,
        "\n{:>8} {:>9} {:>7} {:>6} {:>7} {:>12} {:>12}",
        "workers", "requests", "served", "evald", "hit%", "exposition", "folded"
    );
    for run in &runs {
        let expo = if run.invariant_exposition == reference.invariant_exposition {
            "IDENTICAL"
        } else {
            "DIVERGED"
        };
        let fold = if run.folded == reference.folded {
            "IDENTICAL"
        } else {
            "DIVERGED"
        };
        let _ = writeln!(
            out,
            "{:>8} {:>9} {:>7} {:>6} {:>6.1}% {:>12} {:>12}",
            run.workers,
            run.stats.requests,
            run.stats.served,
            run.stats.evaluated,
            100.0 * run.stats.cache_hit_rate(),
            expo,
            fold,
        );
    }

    let _ = writeln!(
        out,
        "\ninvariant exposition, first lines ({} total):",
        reference.invariant_exposition.lines().count()
    );
    out.push_str(&head(&reference.invariant_exposition, 12));
    let _ = writeln!(
        out,
        "folded trace, first lines ({} total):",
        reference.folded.lines().count()
    );
    out.push_str(&head(&reference.folded, 6));

    // 2. dual accounting: batch-report sums vs registry counters
    let rows = dual_accounting(seed, scale);
    let _ = writeln!(
        out,
        "\ndual accounting under the R2 fault campaign (hardened profile):"
    );
    let _ = writeln!(
        out,
        "{:>34} {:>12} {:>12} {:>6}",
        "metric", "report sum", "registry", "match"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:>34} {:>12} {:>12} {:>6}",
            row.metric,
            row.report_sum,
            row.registry,
            if row.report_sum == row.registry {
                "ok"
            } else {
                "DRIFT"
            },
        );
    }

    // 3. per-tenant SLO burn rows of the reference run
    let (service, _) = scale
        .campaign(seed, scale.worker_counts[0])
        .run(NavEvaluator::city(seed));
    let burn = antarex_obs::burn_exposition(&service.obs().plane().slo.burn_rates());
    let _ = writeln!(
        out,
        "\nlatency SLO burn (threshold {:.2} s, first tenants):",
        service.obs().slo_latency_s()
    );
    out.push_str(&head(&burn, 8));
    out
}

/// The registered `o1` experiment.
pub(crate) fn o1_observability() -> String {
    o1_report(42, &ObsScale::full())
}

/// Wall-clock budget of one hot-path metric event (counter increment,
/// gauge set, histogram record).
const HOT_PATH_BUDGET_NS: f64 = 25.0;

/// Wall-clock budget of one span record: a mutexed ring push and an
/// interning probe.
const SPAN_BUDGET_NS: f64 = 250.0;

/// `BENCH_obs.json`: the plane's determinism and accounting checks on
/// the tiny scales, and its per-event costs against their budgets. The
/// costs the budget gates judged are printed, not written.
pub(crate) fn o1_bench() -> BenchFile {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench_events_total", Scope::Invariant);
    let gauge = registry.gauge("bench_level", Scope::Invariant);
    let histogram = registry.histogram("bench_latency_seconds", Scope::Timing);

    let counter_inc_ns = ns_per_op(20_000_000, || counter.inc());
    let mut level = 0.0f64;
    let gauge_set_ns = ns_per_op(20_000_000, || {
        level += 1.0;
        gauge.set(black_box(level));
    });
    let values: Vec<f64> = (0..1024).map(|i| 1e-6 * (i + 1) as f64).collect();
    let mut i = 0usize;
    let histogram_record_ns = ns_per_op(20_000_000, || {
        i = (i + 1) & 1023;
        histogram.record(black_box(values[i]));
    });
    let tracer = Tracer::new(4096);
    let mut t = 0.0f64;
    let span_record_ns = ns_per_op(2_000_000, || {
        t += 1e-6;
        black_box(tracer.record("bench", Some(1), SpanId::NONE, t, t + 1e-7));
    });
    let hot_path_event_ns = counter_inc_ns.max(gauge_set_ns).max(histogram_record_ns);

    // determinism + accounting checks on the tiny scales: virtual-time,
    // so the verdicts are hardware-independent
    let obs_scale = ObsScale::tiny();
    let worker_invariant = invariance_holds(42, &obs_scale);
    let accounting = dual_accounting(42, &obs_scale);
    let agreeing = accounting
        .iter()
        .filter(|r| r.report_sum == r.registry)
        .count();
    let serve_scale = ServeScale::tiny();
    let one = scaling_row(42, &serve_scale, 6, 1);
    let four = scaling_row(42, &serve_scale, 6, 4);
    let s1_figures_match = one.requests == four.requests
        && one.served == four.served
        && one.shed == four.shed
        && one.evaluated == four.evaluated
        && one.cache_hit_rate() == four.cache_hit_rate();

    BenchFile {
        title: "antarex-obs: tracing + metrics plane",
        fields: map! {
            "budget_ns": fixed(HOT_PATH_BUDGET_NS, 1),
            "span_budget_ns": fixed(SPAN_BUDGET_NS, 1),
        },
        gates: gates! {
            "within_budget": hot_path_event_ns <= HOT_PATH_BUDGET_NS,
                "hot-path event <= {HOT_PATH_BUDGET_NS:.1} ns";
            "span_within_budget": span_record_ns <= SPAN_BUDGET_NS, "span record <= {SPAN_BUDGET_NS:.1} ns";
            "worker_invariant": worker_invariant,
                "exposition + folded trace identical across workers: {worker_invariant}";
            "s1_figures_match": s1_figures_match,
                "1 vs 4 workers: {} / {} served, {} / {} evaluated", one.served, four.served, one.evaluated, four.evaluated;
            "r2_figures_match": agreeing == accounting.len(),
                "{agreeing} of {} report sums equal the registry", accounting.len();
        },
        host_clock: vec![
            ("hot_path_event_ns", hot_path_event_ns),
            ("span_record_ns", span_record_ns),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic() {
        let a = o1_report(3, &ObsScale::tiny());
        let b = o1_report(3, &ObsScale::tiny());
        assert_eq!(a, b, "same seed must reproduce the report byte for byte");
    }

    #[test]
    fn exposition_and_trace_are_worker_invariant() {
        assert!(invariance_holds(11, &ObsScale::tiny()));
    }

    #[test]
    fn report_sums_equal_registry_counters() {
        for row in dual_accounting(7, &ObsScale::tiny()) {
            assert_eq!(
                row.report_sum, row.registry,
                "metric {} drifted from the registry",
                row.metric
            );
        }
    }

    #[test]
    fn full_report_confirms_invariance() {
        let report = o1_report(5, &ObsScale::tiny());
        assert!(report.contains("IDENTICAL"));
        assert!(!report.contains("DIVERGED"));
        assert!(!report.contains("DRIFT"));
    }
}
