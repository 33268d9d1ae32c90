//! Integration: the serving tier's journal, Daly snapshots and crash
//! recovery through the umbrella crate. Each campaign is killed
//! two-thirds of the way through and recovered — from the same
//! [`Campaign`] value that built it — out of snapshot + journal suffix.
//! The recovered run must end in the uninterrupted run's state and have
//! answered every request identically.

use antarex::obs::EnergyModel;
use antarex::serve::cache::DesignKey;
use antarex::serve::chaos::ChaosConfig;
use antarex::serve::docking::TenantMux;
use antarex::serve::driver::{self, Batching, Campaign, Cohort, CrashDrill, DriverConfig};
use antarex::serve::nav::NavEvaluator;
use antarex::serve::store::TenantClass;
use antarex::serve::{Evaluator, FrontDoorConfig, ResilienceConfig, SchedConfig};
use antarex::sim::faults::{FaultConfig, FaultSchedule};

const SEED: u64 = 2016;

/// Tenant whose probes chaos corrupts, so retries, quarantine, the
/// breaker and the admission tiers all have state to recover.
const POISONED: u64 = 1;

/// Hardened resilience, chaos over `faults` with the poisoned tenant,
/// and the SLO front door, on top of `base`.
fn hardened(base: Campaign, faults: &FaultConfig) -> Campaign {
    Campaign {
        resilience: ResilienceConfig::hardened(),
        chaos: Some(ChaosConfig::new(FaultSchedule::generate(faults, 4, 1_000.0)).poison(POISONED)),
        front_door: Some(FrontDoorConfig::hardened()),
        ..base
    }
}

/// Crashes `campaign` after two thirds of its batches.
fn drill<E: Evaluator + Clone>(campaign: &Campaign, evaluator: &E) -> CrashDrill<E> {
    let requests = campaign.arrivals();
    let batches = campaign.batching.batches(&requests).count();
    assert!(batches >= 8, "the campaign spans several Daly intervals");
    let drill = campaign.crash_drill(evaluator, &requests, batches * 2 / 3);
    assert!(drill.had_snapshot, "the Daly cadence must have snapshotted");
    assert!(
        drill.replayed_entries > 0,
        "a journal suffix past the snapshot"
    );
    let answers = || drill.expected.iter().flat_map(|r| &r.responses);
    let answered = answers().filter(|r| r.is_ok()).count();
    assert!(
        0 < answered && answered < answers().count(),
        "past the crash point the campaign must both answer and reject: {answered} of {}",
        answers().count()
    );
    drill
}

#[test]
fn crash_mid_campaign_recovers_state_and_answers() {
    let config = DriverConfig::smoke(SEED);
    let campaign = hardened(config.campaign(), &FaultConfig::none(SEED));
    let drill = drill(&campaign, &NavEvaluator::city(SEED));
    let recovered = &drill.recovered;

    assert_eq!(recovered.state_report(), drill.reference.state_report());
    assert_eq!(drill.reports, drill.expected);

    // published metrics are shared, never copied: every answer the
    // recovered service gave — cache hit, coalesced or freshly probed,
    // from entries restored out of the snapshot, replayed out of the
    // journal or memoized since — is the very allocation its cache
    // holds for that design point (a memoized point is never replaced:
    // only a probe's failure quarantines, and a cached point is not
    // probed)
    let mut shared = 0;
    for answer in drill.reports.iter().flat_map(|r| &r.responses).flatten() {
        let features = driver::archetype_features(answer.tenant as usize % config.archetypes);
        let cached = recovered
            .cache()
            .get(&DesignKey::new(&answer.config, &features))
            .expect("an answered design point is cached");
        assert!(answer.metrics.ptr_eq(&cached), "tenant {}", answer.tenant);
        shared += 1;
    }
    assert!(shared > 0, "the recovered service answered something");
}

/// Every subsystem on at once: both tenant classes with probe demand
/// to the end (half the nav tenants carry features of their own), node
/// crashes and corruption windows, a poisoned tenant, the front door,
/// work stealing and a non-default energy model.
#[test]
fn recovery_is_exact_with_every_subsystem_on() {
    let mut faults = FaultConfig::none(SEED);
    faults.node_mtbf_s = 45.0;
    faults.repair_time_s = 4.0;
    faults.corrupt_mtbf_s = 8.0;
    faults.corrupt_window_s = 2.0;
    let nav = Cohort {
        class: TenantClass::Nav,
        fresh_every: 2,
        ..Cohort::new(96, 6, 0.02)
    };
    let docking = Cohort {
        first: 1000,
        count: 24,
        class: TenantClass::Docking,
        stream: 1,
        ..nav
    };
    let campaign = hardened(
        Campaign {
            cohorts: vec![nav, docking],
            sched: SchedConfig::work_stealing(),
            energy: EnergyModel {
                node_static_w: 3.5,
                cooling_overhead: 0.22,
                cache_lookup_w: 0.7,
            },
            ..Campaign::new(SEED, 120.0, Batching::Window(10.0))
        },
        &faults,
    );
    // a planner fast enough that the 0.5 s SLO is meetable whenever
    // capacity matches demand
    let mut evaluator = TenantMux::city_and_screening(SEED);
    evaluator.nav.expansions_per_s *= 8.0;
    let drill = drill(&campaign, &evaluator);

    assert_eq!(
        drill.recovered.state_report(),
        drill.reference.state_report()
    );
    for (index, (got, want)) in drill.reports.iter().zip(&drill.expected).enumerate() {
        assert_eq!(got, want, "batch {index} after the crash");
    }
    assert_eq!(drill.reports.len(), drill.expected.len());
    let ledger = &drill.recovered.obs().plane().energy;
    assert_eq!(ledger.totals_nj(), drill.expected_energy_nj);
    assert!(ledger.conservation_holds());
    assert!(drill.bit_identical);

    // neither is journaled, so the checks above hold only because
    // recovery re-applied both: the default policy never steals, and
    // the default model meters other joules for the same campaign
    assert!(
        drill.recovered.obs().sched_steals() > 0,
        "no job was stolen"
    );
    let totals_nj = |campaign: &Campaign| {
        let (service, _) = campaign.run(evaluator.clone());
        service.obs().plane().energy.totals_nj()
    };
    assert_ne!(
        totals_nj(&campaign),
        totals_nj(&Campaign {
            energy: EnergyModel::default(),
            ..campaign.clone()
        })
    );
}
