//! Property suite for causal tracing + energy attribution.
//!
//! Three contracts must hold for the observability pipeline to be
//! trustworthy in production:
//!
//! * **Conservation is unconditional.** Σ per-request attributed
//!   energy + idle remainder ≡ the facility meter — exact integer
//!   nanojoules — even when random fault schedules crash workers,
//!   corrupt results in flight, and trip circuit breakers. Failed
//!   probes' energy lands in `idle`, never double-charged, never lost.
//! * **Trace identity is causal, not physical.** A request's
//!   [`TraceCtx`] id derives from `(tenant, probe_seed, batch, seq)`
//!   alone, so the id set is byte-identical at any physical worker
//!   count and under any scheduling policy.
//! * **Quantile estimates honour the γ bound.** The per-class
//!   energy-per-request histograms are log-bucketed at γ = 1.05;
//!   every exposed quantile must sit within `√γ − 1` relative error
//!   of the exact rank statistic of the recorded samples.

use antarex_obs::hist::relative_error_bound;
use antarex_obs::STANDARD_QUANTILES;
use antarex_serve::chaos::ChaosConfig;
use antarex_serve::docking::TenantMux;
use antarex_serve::driver::{Batching, Campaign, Cohort};
use antarex_serve::store::TenantClass;
use antarex_serve::{BatchReport, ResilienceConfig, SchedConfig, TuningService};
use antarex_sim::faults::{FaultConfig, FaultSchedule};
use std::collections::BTreeSet;

/// First docking tenant id — nav tenants occupy the low range.
const DOCKING_BASE: u64 = 1000;

/// Six nav tenants (under the explicit Nav class, so the per-class
/// histograms split the use cases) and two docking tenants, served 16
/// requests a batch on `physical` pool workers; hardened when chaos is
/// on.
fn mixed_campaign(
    seed: u64,
    physical: usize,
    sched: SchedConfig,
    chaos: Option<ChaosConfig>,
) -> Campaign {
    let nav = Cohort {
        class: TenantClass::Nav,
        ..Cohort::new(6, 3, 0.8)
    };
    let docking = Cohort {
        first: DOCKING_BASE,
        count: 2,
        class: TenantClass::Docking,
        stream: 1,
        ..nav
    };
    Campaign {
        cohorts: vec![nav, docking],
        resilience: if chaos.is_some() {
            ResilienceConfig::hardened()
        } else {
            ResilienceConfig::disabled()
        },
        chaos,
        sched,
        ..Campaign::new(seed, 30.0, Batching::Count(16))
    }
    .workers(physical)
}

/// Builds the campaign's service and serves its arrivals, checking
/// `each_batch` at every batch boundary.
fn serve(
    campaign: &Campaign,
    mut each_batch: impl FnMut(&TuningService<TenantMux>, BatchReport),
) -> TuningService<TenantMux> {
    let service = campaign.build(TenantMux::city_and_screening(campaign.seed));
    campaign.drive(&service, &campaign.arrivals(), |_, report| {
        each_batch(&service, report)
    });
    service
}

/// A compressed fault profile (the exascale MTBFs would land nothing
/// on a 30 s horizon): crashes, gray slowdowns, corruption windows.
fn random_chaos(seed: u64, workers: usize) -> ChaosConfig {
    let mut config = FaultConfig::none(seed);
    config.node_mtbf_s = 40.0;
    config.repair_time_s = 3.0;
    config.gray_mtbf_s = 30.0;
    config.gray_slowdown = 8.0;
    config.gray_duration_s = 5.0;
    config.corrupt_mtbf_s = 8.0;
    config.corrupt_window_s = 2.0;
    ChaosConfig::new(FaultSchedule::generate(&config, workers, 1000.0))
}

#[test]
fn conservation_is_exact_under_random_chaos_schedules() {
    for seed in 0..10u64 {
        // a poisoned tenant guarantees integrity failures on top of
        // whatever the random schedule lands
        let chaos = random_chaos(seed, 4).poison(2);
        let campaign = mixed_campaign(seed, 2, SchedConfig::work_stealing(), Some(chaos));
        let service = serve(&campaign, |service, _| {
            // the invariant holds at every window boundary, not just
            // at the end of the campaign
            assert!(
                service.obs().plane().energy.conservation_holds(),
                "seed {seed}: conservation broke mid-campaign"
            );
        });
        let (facility, attributed, idle) = service.obs().plane().energy.totals_nj();
        assert_eq!(attributed + idle, facility, "seed {seed}");
        assert!(facility > 0, "seed {seed}: campaign spent no energy");
    }
}

#[test]
fn failed_probes_are_idle_energy_never_lost() {
    // poison every docking tenant: their probes always fail integrity,
    // so their direct energy must land in `idle`, not vanish
    let chaos = ChaosConfig::new(FaultSchedule::generate(&FaultConfig::none(1), 4, 1000.0))
        .poison(DOCKING_BASE)
        .poison(DOCKING_BASE + 1);
    let campaign = mixed_campaign(3, 2, SchedConfig::work_stealing(), Some(chaos));
    let service = serve(&campaign, |_, _| ());
    let (facility, attributed, idle) = service.obs().plane().energy.totals_nj();
    assert_eq!(attributed + idle, facility);
    assert!(idle > 0, "poisoned probes must leave unattributed energy");
    let per_tenant = service.obs().plane().energy.per_tenant_nj();
    assert!(
        per_tenant.iter().all(|&(tenant, _)| tenant < DOCKING_BASE),
        "poisoned tenants must not be attributed: {per_tenant:?}"
    );
}

fn trace_id_set(physical: usize, sched: SchedConfig) -> BTreeSet<String> {
    serve(&mixed_campaign(7, physical, sched, None), |_, _| ())
        .obs()
        .plane()
        .trace
        .events()
        .iter()
        .map(|event| event.trace.to_hex())
        .collect()
}

#[test]
fn trace_ids_are_invariant_in_physical_workers_and_steal_policy() {
    let reference = trace_id_set(1, SchedConfig::default());
    assert!(!reference.is_empty(), "campaign produced no traces");
    for physical in [2usize, 4, 8] {
        assert_eq!(
            trace_id_set(physical, SchedConfig::default()),
            reference,
            "physical worker count {physical} leaked into trace identity"
        );
    }
    assert_eq!(
        trace_id_set(4, SchedConfig::work_stealing()),
        reference,
        "the scheduling policy leaked into trace identity"
    );
}

#[test]
fn class_energy_quantiles_respect_the_gamma_bound() {
    // exact per-class samples: every Ok response's attributed energy,
    // which is precisely what the service records into the histograms
    let mut samples: [Vec<f64>; TenantClass::COUNT] = Default::default();
    let campaign = mixed_campaign(11, 2, SchedConfig::work_stealing(), None);
    let service = serve(&campaign, |_, report| {
        for response in report.responses.iter().flatten() {
            let class = if response.tenant >= DOCKING_BASE {
                TenantClass::Docking
            } else {
                TenantClass::Nav
            };
            samples[class.index()].push(response.energy_j);
        }
    });
    let bound = relative_error_bound();
    for class in [TenantClass::Nav, TenantClass::Docking] {
        let mut exact = samples[class.index()].clone();
        assert!(
            exact.len() >= 20,
            "{}: too few samples ({})",
            class.label(),
            exact.len()
        );
        exact.sort_by(f64::total_cmp);
        let snapshot = service.obs().class_energy_snapshot(class);
        assert_eq!(snapshot.count, exact.len() as u64, "{}", class.label());
        for (slot, &q) in snapshot.quantiles.iter().zip(STANDARD_QUANTILES.iter()) {
            let estimate = slot.unwrap_or_else(|| panic!("{}: empty quantile", class.label()));
            // the histogram's rank convention: the ⌈q·n⌉-th smallest
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let err = (estimate - truth).abs() / truth.abs().max(f64::MIN_POSITIVE);
            assert!(
                err <= bound + 1e-12,
                "{} p{q}: estimate {estimate} vs exact {truth} -> {err:.5} > {bound:.5}",
                class.label()
            );
        }
    }
}
