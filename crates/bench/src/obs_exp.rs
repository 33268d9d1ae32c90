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
//! byte for byte, and CI diffs two runs.

use crate::head;
use antarex_obs::MetricValue;
use antarex_serve::chaos::ChaosConfig;
use antarex_serve::driver::{Batching, Campaign, Cohort, DriveStats};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::service::ResilienceConfig;
use antarex_serve::{Evaluator, TuningService};
use antarex_sim::faults::FaultSchedule;
use std::fmt::Write as _;

/// Size of one O1 run.
#[derive(Debug, Clone, Copy)]
pub struct ObsScale {
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
    pub fn tiny() -> Self {
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
pub fn invariance_holds(seed: u64, scale: &ObsScale) -> bool {
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
pub struct AccountingRow {
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
pub fn dual_accounting(seed: u64, scale: &ObsScale) -> Vec<AccountingRow> {
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
