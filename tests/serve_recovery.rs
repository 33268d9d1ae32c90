//! Integration: the serving tier's journal, Daly snapshots and crash
//! recovery through the umbrella crate — one short navigation campaign
//! with hardened resilience, chaos and the SLO front door, killed
//! mid-run and recovered from snapshot + journal suffix. The recovered
//! run must end in the uninterrupted run's state and have answered
//! every request identically.

use antarex::serve::cache::DesignKey;
use antarex::serve::chaos::ChaosConfig;
use antarex::serve::driver::{self, DriverConfig};
use antarex::serve::nav::NavEvaluator;
use antarex::serve::{
    BatchReport, FrontDoorConfig, ResilienceConfig, ServiceConfig, TuningRequest, TuningService,
};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use std::hash::{DefaultHasher, Hash, Hasher};

const SEED: u64 = 2016;

/// Tenant whose probes chaos corrupts, so retries, quarantine, the
/// breaker and the admission tiers all have state to recover.
const POISONED: u64 = 1;

fn build(config: &DriverConfig) -> TuningService<NavEvaluator> {
    let service = TuningService::with_resilience(
        ServiceConfig::default(),
        ResilienceConfig::hardened(),
        NavEvaluator::city(SEED),
    )
    .with_chaos(chaos())
    .with_front_door(FrontDoorConfig::hardened());
    driver::register_nav_tenants(&service, config, 0.5);
    service
}

fn chaos() -> ChaosConfig {
    ChaosConfig::new(FaultSchedule::generate(
        &FaultConfig::none(SEED),
        4,
        1_000.0,
    ))
    .poison(POISONED)
}

/// Arrivals chunked into the driver's batch windows.
fn windows(config: &DriverConfig) -> Vec<Vec<TuningRequest>> {
    let window_of = |r: &TuningRequest| (r.arrival_s / config.batch_window_s) as usize;
    driver::arrivals(config)
        .chunk_by(|a, b| window_of(a) == window_of(b))
        .map(<[TuningRequest]>::to_vec)
        .collect()
}

/// Digest over every response and batch counter, in serving order.
fn digest(reports: &[BatchReport]) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{reports:?}").hash(&mut hasher);
    hasher.finish()
}

#[test]
fn crash_mid_campaign_recovers_state_and_answers() {
    let config = DriverConfig::smoke(SEED);
    let windows = windows(&config);
    assert!(
        windows.len() >= 8,
        "the smoke campaign spans several Daly intervals"
    );
    let crash_at = windows.len() * 2 / 3;

    let reference = build(&config);
    let expected: Vec<BatchReport> = windows.iter().map(|w| reference.serve_batch(w)).collect();
    let answered = expected
        .iter()
        .flat_map(|r| &r.responses)
        .filter(|r| r.is_ok())
        .count();
    let asked: usize = windows.iter().map(Vec::len).sum();
    assert!(
        0 < answered && answered < asked,
        "the campaign must both answer and reject"
    );

    let victim = build(&config);
    let mut reports: Vec<BatchReport> = windows[..crash_at]
        .iter()
        .map(|w| victim.serve_batch(w))
        .collect();
    let (snapshot, entries) = victim.crash();
    assert!(snapshot.is_some(), "the Daly cadence must have snapshotted");
    assert!(!entries.is_empty(), "a journal suffix past the snapshot");

    let recovered = TuningService::recover(
        ServiceConfig::default(),
        ResilienceConfig::hardened(),
        Some(chaos()),
        Some(FrontDoorConfig::hardened()),
        NavEvaluator::city(SEED),
        snapshot,
        &entries,
        &|_tenant| driver::nav_manager(0.5),
    );
    reports.extend(windows[crash_at..].iter().map(|w| recovered.serve_batch(w)));

    assert_eq!(recovered.state_report(), reference.state_report());
    assert_eq!(digest(&reports), digest(&expected));

    // published metrics are shared, never copied: every answer the
    // recovered service gave — cache hit, coalesced or freshly probed,
    // from entries restored out of the snapshot, replayed out of the
    // journal or memoized since — is the very allocation its cache
    // holds for that design point (a memoized point is never replaced:
    // only a probe's failure quarantines, and a cached point is not
    // probed)
    let mut shared = 0;
    for answer in reports[crash_at..]
        .iter()
        .flat_map(|r| &r.responses)
        .flatten()
    {
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
