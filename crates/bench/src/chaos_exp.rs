//! Experiment R2: chaos-hardened serving.
//!
//! Drives the multi-tenant serving tier through a deterministic fault
//! campaign and measures what the hardening machinery buys:
//!
//! 1. **Goodput under faults** — the same seeded workload is served
//!    three ways: fault-free baseline, faults with the unhardened
//!    policy (no retries, no hedging, no breakers), and faults with the
//!    hardened profile (hedged retries with deadlines, per-tenant
//!    circuit breakers, quarantine). The headline claim: at a fault
//!    rate where the unhardened service loses well over 10% of its
//!    baseline goodput, the hardened service keeps ≥ 99% of it.
//! 2. **Poisoned-tenant containment** — one tenant's probes always fail
//!    the integrity check; its circuit breaker must trip and convert
//!    the stream into fail-fast rejections instead of burned pool time,
//!    while the other tenants keep serving.
//! 3. **Crash and recovery** — the hardened, journaled service is
//!    killed mid-run; recovery (snapshot + journal-suffix replay)
//!    continues the remaining windows and must be
//!    [bit-identical](CrashDrill::bit_identical) to an uninterrupted run
//!    of the same seed.
//!
//! Everything is virtual-time and seeded, so the whole report is
//! reproducible byte for byte — CI compares it with its committed golden.

use antarex_serve::chaos::ChaosConfig;
use antarex_serve::driver::{Batching, Campaign, Cohort, CrashDrill, DriveStats};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::service::ResilienceConfig;
use antarex_serve::store::TenantId;
use antarex_sim::faults::{FaultConfig, FaultSchedule};
use std::fmt::Write as _;

/// Size of one R2 run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosScale {
    /// Concurrent tenant sessions.
    pub tenants: usize,
    /// Distinct workload archetypes shared among tenants.
    pub archetypes: usize,
    /// Virtual duration of the driven run, seconds.
    pub duration_s: f64,
    /// Mean request rate per tenant, Hz.
    pub rate_per_tenant_hz: f64,
    /// Pool workers (= fault-schedule nodes).
    pub workers: usize,
}

impl ChaosScale {
    /// The full campaign printed by the `r2` experiment.
    ///
    /// One archetype per tenant keeps evaluation pressure on the pool
    /// for the whole run (no cross-tenant memoization hiding the
    /// faults), which is exactly the regime where hardening matters:
    /// a workload the cache has fully absorbed cannot fail.
    pub(crate) fn full() -> Self {
        ChaosScale {
            tenants: 96,
            archetypes: 96,
            duration_s: 120.0,
            rate_per_tenant_hz: 0.1,
            workers: 4,
        }
    }

    /// The campaign served under one (resilience, chaos) profile.
    fn campaign(
        &self,
        seed: u64,
        resilience: ResilienceConfig,
        chaos: Option<ChaosConfig>,
    ) -> Campaign {
        Campaign {
            cohorts: vec![Cohort::new(
                self.tenants,
                self.archetypes,
                self.rate_per_tenant_hz,
            )],
            resilience,
            chaos,
            ..Campaign::new(seed, self.duration_s, Batching::Window(5.0))
        }
        .workers(self.workers)
    }

    /// A chaos plane over `faults`, one schedule node per pool worker.
    fn chaos(&self, faults: &FaultConfig) -> ChaosConfig {
        ChaosConfig::new(FaultSchedule::generate(
            faults,
            self.workers,
            self.duration_s + 60.0,
        ))
    }
}

/// The aggressive fault profile of the serving campaign. Exascale-cited
/// MTBFs (hours per node) would produce nothing on a two-minute virtual
/// horizon, so the rates are compressed to land several crashes, gray
/// windows, and corruption windows on every run while keeping the same
/// failure *shapes* as `FaultConfig::exascale`.
pub(crate) fn serving_faults(seed: u64) -> FaultConfig {
    let mut config = FaultConfig::none(seed);
    config.node_mtbf_s = 45.0;
    config.weibull_shape = 1.0;
    config.repair_time_s = 4.0;
    config.gray_mtbf_s = 35.0;
    config.gray_slowdown = 8.0;
    config.gray_duration_s = 6.0;
    config.corrupt_mtbf_s = 6.0;
    config.corrupt_window_s = 2.5;
    config
}

/// One row of the goodput comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GoodputRow {
    /// Profile label (`baseline`, `unhardened`, `hardened`).
    pub profile: &'static str,
    /// The driven-run statistics.
    pub stats: DriveStats,
    /// Total circuit trips across tenants.
    pub breaker_trips: u64,
}

/// Serves the seeded workload under one (resilience, chaos) profile.
pub(crate) fn goodput_run(
    seed: u64,
    scale: &ChaosScale,
    profile: &'static str,
    resilience: ResilienceConfig,
    chaos: Option<ChaosConfig>,
) -> GoodputRow {
    let (service, stats) = scale
        .campaign(seed, resilience, chaos)
        .run(NavEvaluator::city(seed));
    GoodputRow {
        profile,
        stats,
        breaker_trips: service.breakers().total_trips(),
    }
}

/// The three-way goodput comparison: baseline, unhardened under faults,
/// hardened under the same faults.
pub(crate) fn goodput_campaign(seed: u64, scale: &ChaosScale) -> Vec<GoodputRow> {
    let chaos = || Some(scale.chaos(&serving_faults(seed)));
    let unhardened = ResilienceConfig {
        hedge: antarex_serve::chaos::HedgePolicy::disabled(),
        breaker: antarex_serve::breaker::BreakerConfig::disabled(),
        journaled: false,
        snapshot_mtbf_s: 0.0,
        snapshot_cost_s: 0.0,
    };
    vec![
        goodput_run(seed, scale, "baseline", ResilienceConfig::disabled(), None),
        goodput_run(seed, scale, "unhardened", unhardened, chaos()),
        goodput_run(
            seed,
            scale,
            "hardened",
            ResilienceConfig::hardened(),
            chaos(),
        ),
    ]
}

/// Outcome of the poisoned-tenant containment run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContainmentOutcome {
    /// The poisoned tenant.
    pub tenant: TenantId,
    /// Requests the poisoned tenant issued.
    pub poisoned_requests: u64,
    /// Its requests that failed (faulted or fail-fasted).
    pub poisoned_rejected: u64,
    /// Times its circuit opened.
    pub breaker_trips: u64,
    /// Requests served across the *other* tenants.
    pub others_served: u64,
    /// Design points quarantined over the run.
    pub quarantined: u64,
}

/// Poisons one tenant's probes and measures the blast radius.
pub(crate) fn poisoned_tenant_containment(seed: u64, scale: &ChaosScale) -> ContainmentOutcome {
    let poisoned: TenantId = 0;
    let chaos = scale.chaos(&FaultConfig::none(seed)).poison(poisoned);
    let (service, stats) = scale
        .campaign(seed, ResilienceConfig::hardened(), Some(chaos))
        .run(NavEvaluator::city(seed));
    let (requests, rejected) = service
        .store()
        .with(poisoned, |s| (s.requests + s.rejected, s.rejected))
        .unwrap_or((0, 0));
    let trips = service
        .breakers()
        .snapshot()
        .iter()
        .find(|(t, _)| *t == poisoned)
        .map(|(_, b)| b.trips())
        .unwrap_or(0);
    ContainmentOutcome {
        tenant: poisoned,
        poisoned_requests: requests,
        poisoned_rejected: rejected,
        breaker_trips: trips,
        others_served: stats.served as u64
            - service.store().read(poisoned, |s| s.requests).unwrap_or(0),
        quarantined: stats.quarantined,
    }
}

/// Kills the hardened service mid-run, recovers from snapshot + journal
/// suffix, finishes the workload, and compares against an uninterrupted
/// run of the same seed.
pub(crate) fn crash_recovery_drill(seed: u64, scale: &ChaosScale) -> CrashDrill<NavEvaluator> {
    let campaign = scale.campaign(
        seed,
        ResilienceConfig::hardened(),
        Some(scale.chaos(&serving_faults(seed))),
    );
    let requests = campaign.arrivals();
    let crash_at = campaign.batching.batches(&requests).count() / 2;
    campaign.crash_drill(&NavEvaluator::city(seed), &requests, crash_at)
}

/// Renders the full R2 report for one seed and scale.
pub(crate) fn r2_report(seed: u64, scale: &ChaosScale) -> String {
    let mut out = String::new();
    let faults = serving_faults(seed);
    let _ = writeln!(
        out,
        "chaos campaign (seed {seed}, {} tenants, {} workers, {:.0} s virtual)",
        scale.tenants, scale.workers, scale.duration_s
    );
    let _ = writeln!(
        out,
        "fault profile: node MTBF {:.0} s (repair {:.0} s), gray MTBF {:.0} s ({}x for {:.0} s), corruption MTBF {:.0} s ({:.0} s windows)",
        faults.node_mtbf_s,
        faults.repair_time_s,
        faults.gray_mtbf_s,
        faults.gray_slowdown,
        faults.gray_duration_s,
        faults.corrupt_mtbf_s,
        faults.corrupt_window_s
    );

    let rows = goodput_campaign(seed, scale);
    let baseline_goodput = rows[0].stats.goodput();
    let _ = writeln!(
        out,
        "\n{:>11} {:>9} {:>7} {:>7} {:>6} {:>9} {:>8} {:>7} {:>7} {:>6} {:>11}",
        "profile",
        "requests",
        "served",
        "failed",
        "shed",
        "goodput",
        "rel",
        "retries",
        "hedges",
        "trips",
        "quarantined"
    );
    for row in &rows {
        let relative = if baseline_goodput > 0.0 {
            row.stats.goodput() / baseline_goodput
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>11} {:>9} {:>7} {:>7} {:>6} {:>8.1}% {:>7.1}% {:>7} {:>7} {:>6} {:>11}",
            row.profile,
            row.stats.requests,
            row.stats.served,
            row.stats.failed,
            row.stats.shed,
            100.0 * row.stats.goodput(),
            100.0 * relative,
            row.stats.retries,
            row.stats.hedges,
            row.breaker_trips,
            row.stats.quarantined,
        );
    }
    let unhardened_rel = rows[1].stats.goodput() / baseline_goodput;
    let hardened_rel = rows[2].stats.goodput() / baseline_goodput;
    let _ = writeln!(
        out,
        "hardening recovers {:.1}% of baseline goodput where the unhardened service keeps {:.1}%",
        100.0 * hardened_rel,
        100.0 * unhardened_rel
    );

    let containment = poisoned_tenant_containment(seed, scale);
    let _ = writeln!(
        out,
        "\npoisoned tenant {}: {} requests, {} rejected, breaker tripped {} time(s), {} design points quarantined; other tenants served {}",
        containment.tenant,
        containment.poisoned_requests,
        containment.poisoned_rejected,
        containment.breaker_trips,
        containment.quarantined,
        containment.others_served
    );

    out.push_str(&crate::crash_drill_line(
        &crash_recovery_drill(seed, scale),
        "state",
    ));
    out
}

/// The registered `r2` experiment.
pub(crate) fn r2_chaos_hardening() -> String {
    r2_report(42, &ChaosScale::full())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign small enough for `cargo test`.
    const TINY: ChaosScale = ChaosScale {
        tenants: 16,
        archetypes: 16,
        duration_s: 40.0,
        rate_per_tenant_hz: 0.1,
        workers: 2,
    };

    #[test]
    fn report_is_deterministic() {
        let a = r2_report(3, &TINY);
        let b = r2_report(3, &TINY);
        assert_eq!(a, b, "same seed must reproduce the report byte for byte");
    }

    #[test]
    fn hardened_goodput_holds_where_unhardened_collapses() {
        let rows = goodput_campaign(42, &ChaosScale::full());
        let baseline = rows[0].stats.goodput();
        assert!(baseline > 0.9, "baseline must mostly serve: {baseline}");
        let unhardened = rows[1].stats.goodput() / baseline;
        let hardened = rows[2].stats.goodput() / baseline;
        assert!(
            unhardened <= 0.90,
            "the fault rate must cost the unhardened service >= 10%: {unhardened}"
        );
        assert!(
            hardened >= 0.99,
            "the hardened service must keep >= 99% of baseline goodput: {hardened}"
        );
        assert!(rows[2].stats.retries > 0, "retries must have fired");
    }

    #[test]
    fn poisoned_tenant_is_contained() {
        let outcome = poisoned_tenant_containment(42, &ChaosScale::full());
        assert!(outcome.breaker_trips >= 1, "the breaker must trip");
        assert!(outcome.poisoned_rejected > 0);
        assert!(outcome.quarantined > 0, "corrupt points must quarantine");
        assert!(
            outcome.others_served > 0,
            "healthy tenants must keep serving"
        );
    }

    #[test]
    fn crash_recovery_is_bit_identical() {
        let outcome = crash_recovery_drill(7, &TINY);
        assert!(outcome.batches_before_crash > 0);
        assert!(outcome.had_snapshot);
        assert!(!outcome.reports.is_empty());
        assert!(outcome.bit_identical, "recovery must replay exactly");
    }
}
