//! Integration: the whole `serve_batch` pipeline pinned from outside.
//!
//! One short campaign with every optional subsystem on at once —
//! hardened resilience with the journal and Daly snapshots, chaos with
//! an aggressive fault schedule and a poisoned tenant, the SLO front
//! door with autoscaling, work stealing, a non-default energy model,
//! navigation and docking tenants through one `TenantMux`, and an
//! evaluator that reports VM sub-segments — so each stage of the
//! pipeline runs next to every other one. After **every** batch the
//! test checks request conservation (one response per request, every
//! request in exactly one terminal counter, the energy ledger exact);
//! at the end it folds everything the service can show — all
//! `BatchReport`s, the state report, the invariant exposition, the
//! folded span trace, the retained trace events in record order, the
//! energy ledger, and the journal suffix in append order — into one
//! FNV-1a digest and compares it with [`GOLDEN`].
//!
//! **`GOLDEN` was captured from the parent commit's build (45f5dd6,
//! `serve_batch` still one 838-line function) before `service.rs` was
//! edited.** A restructuring of the batch path that keeps behaviour
//! bit-identical keeps this constant; one that moves a counter, a span,
//! a trace event or a journal entry — or merely reorders two — does
//! not.
//!
//! Symbol-interning order, and with it `DesignKey` hashes and raw key
//! order, is deterministic only when nothing else interns concurrently,
//! so this binary holds exactly one test, and the fold renders cache
//! entries and journal deltas by name, never by key.

use antarex::obs::EnergyModel;
use antarex::serve::chaos::{ChaosConfig, HedgePolicy};
use antarex::serve::docking::TenantMux;
use antarex::serve::driver::{self, Batching, BurstProfile, Campaign, Cohort, DriverConfig};
use antarex::serve::pool::{Evaluation, SchedConfig};
use antarex::serve::store::TenantClass;
use antarex::serve::{
    AdmissionConfig, AutoscaleConfig, BatchReport, Evaluator, FrontDoorConfig, JournalEntry,
    ProbeSegment, ResilienceConfig, ServeError, TuningRequest, TuningService,
};
use antarex::sim::faults::{FaultConfig, FaultSchedule};
use antarex::tuner::goal::Objective;
use antarex::tuner::{AppManager, Configuration, KnowledgeBase};

/// The digest of the campaign below at the parent commit.
const GOLDEN: u64 = 0x822a_9dcf_4f7a_4680;

const SEED: u64 = 2016;
const DURATION_S: f64 = 45.0;
const WINDOW_S: f64 = 2.5;

const QUEUE_CAPACITY: usize = 8;
const NAV_TENANTS: usize = 12;
/// Nav tenants share archetypes, so most of them answer from the cache.
const NAV_ARCHETYPES: usize = 5;
const DOCKING_BASE: u64 = 1000;
const DOCKING_TENANTS: usize = 6;
/// Floods the pool with probes chaos always corrupts: retries,
/// quarantine, breaker trips, then the degrade and shed tiers.
const POISONED: u64 = 2000;
/// Registered with an SLA no operating point meets.
const INFEASIBLE: u64 = 2001;
/// Registered with an empty knowledge base.
const EMPTY: u64 = 2002;
/// Never registered.
const UNKNOWN: u64 = 2003;

/// `TenantMux` with every probe split into two VM segments, so sampled
/// jobs exercise the VM layer of the causal trace.
struct Segmented(TenantMux);

impl Evaluator for Segmented {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self.0.evaluate(config, features)
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let evaluation = self.0.evaluate(config, features);
        let segments = vec![
            ProbeSegment {
                name: "reference",
                cost_s: evaluation.cost_s * 0.25,
                energy_j: evaluation.energy_j * 0.25,
            },
            ProbeSegment {
                name: "tuned",
                cost_s: evaluation.cost_s * 0.75,
                energy_j: evaluation.energy_j * 0.75,
            },
        ];
        (evaluation, segments)
    }
}

/// Crashes, gray slowdowns and corruption windows compressed onto the
/// campaign's 45 virtual seconds.
fn faults() -> FaultConfig {
    let mut config = FaultConfig::none(SEED);
    config.node_mtbf_s = 30.0;
    config.weibull_shape = 1.0;
    config.repair_time_s = 4.0;
    config.gray_mtbf_s = 25.0;
    config.gray_slowdown = 8.0;
    config.gray_duration_s = 6.0;
    config.corrupt_mtbf_s = 6.0;
    config.corrupt_window_s = 2.5;
    config
}

/// Everything the campaign value can say: the nav and docking cohorts
/// and every optional subsystem.
fn campaign() -> Campaign {
    let chaos =
        ChaosConfig::new(FaultSchedule::generate(&faults(), 8, DURATION_S + 60.0)).poison(POISONED);
    let mut campaign = Campaign {
        cohorts: vec![
            Cohort::new(NAV_TENANTS, NAV_ARCHETYPES, 0.8),
            Cohort {
                first: DOCKING_BASE,
                class: TenantClass::Docking,
                stream: (SEED ^ 0xD0C4).wrapping_sub(SEED),
                ..Cohort::new(DOCKING_TENANTS, 1, 0.5)
            },
        ],
        // hedge and deadline budgets tight enough to fire inside a
        // 2.5 s window
        resilience: ResilienceConfig {
            hedge: HedgePolicy {
                deadline_s: 0.6,
                hedge_after_s: 0.2,
                ..HedgePolicy::hardened()
            },
            ..ResilienceConfig::hardened()
        },
        chaos: Some(chaos),
        front_door: Some(FrontDoorConfig {
            admission: AdmissionConfig::hardened(),
            autoscale: AutoscaleConfig {
                min_workers: 2,
                max_workers: 8,
                ..AutoscaleConfig::hardened()
            },
        }),
        sched: SchedConfig::work_stealing(),
        energy: EnergyModel {
            node_static_w: 3.5,
            cooling_overhead: 0.22,
            cache_lookup_w: 0.7,
        },
        ..Campaign::new(SEED, DURATION_S, Batching::Window(WINDOW_S))
    };
    // a queue just shorter than the first window's probe demand, so
    // the pool sheds a few
    campaign.service.pool.queue_capacity = QUEUE_CAPACITY;
    campaign.workers(2)
}

/// The campaign's service plus the tenants only this test needs: the
/// abuser and the contract offenders.
fn build(campaign: &Campaign) -> TuningService<Segmented> {
    // a planner fast enough that the 0.5 s SLO is meetable whenever
    // capacity matches demand
    let mut mux = TenantMux::city_and_screening(SEED);
    mux.nav.expansions_per_s *= 8.0;
    let service = campaign.build(Segmented(mux));
    service
        .register_tenant(
            POISONED,
            driver::nav_manager(0.5),
            driver::archetype_features(NAV_ARCHETYPES),
        )
        .expect("fresh id");
    service
        .register_tenant(
            INFEASIBLE,
            driver::nav_manager(1e-6),
            driver::archetype_features(0),
        )
        .expect("fresh id");
    service
        .register_tenant(
            EMPTY,
            AppManager::new(KnowledgeBase::new(), Objective::minimize("latency")),
            vec![1.0],
        )
        .expect("fresh id");
    service
}

/// The campaign's arrivals merged with the offenders': the abuser
/// bursts; the three contract offenders (consecutive ids from
/// `INFEASIBLE`) trickle.
fn requests(campaign: &Campaign) -> Vec<TuningRequest> {
    let offenders = |tenants: usize, rate_per_tenant_hz: f64, salt: u64| DriverConfig {
        tenants,
        archetypes: 1,
        duration_s: DURATION_S,
        rate_per_tenant_hz,
        batch_window_s: WINDOW_S,
        seed: SEED ^ salt,
    };
    let shifted = |requests: Vec<TuningRequest>, base: u64| {
        requests.into_iter().map(move |mut request| {
            request.tenant += base;
            request
        })
    };
    let mut requests = campaign.arrivals();
    requests.extend(shifted(
        driver::bursty_arrivals(&offenders(1, 1.5, 0xBAD), &BurstProfile::aggressive()),
        POISONED,
    ));
    requests.extend(shifted(
        driver::arrivals(&offenders(3, 0.15, 0x0DD)),
        INFEASIBLE,
    ));
    driver::sort_arrivals(&mut requests);
    requests
}

/// 64-bit FNV-1a: the same digest under any toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn counter<E: Evaluator>(service: &TuningService<E>, name: &str) -> u64 {
    service
        .obs()
        .plane()
        .registry
        .counter(name, antarex::obs::Scope::Invariant)
        .get()
}

/// The state report with cache lines reduced to their metrics and
/// sorted: a `DesignKey` renders its interning-dependent hash, and the
/// report lists entries in raw key order.
fn named_state_report<E: Evaluator>(service: &TuningService<E>) -> String {
    let report = service.state_report();
    let (mut cache, rest): (Vec<&str>, Vec<&str>) =
        report.lines().partition(|line| line.starts_with("cache "));
    for line in &mut cache {
        *line = line.split_once(" => ").expect("cache line shape").1;
    }
    cache.sort_unstable();
    format!("{}\n{}\n", rest.join("\n"), cache.join("\n"))
}

/// One journal delta rendered without its cache key.
fn named_entry(entry: &JournalEntry) -> String {
    match entry {
        JournalEntry::CacheInsert { metrics, .. } => format!("CacheInsert {metrics:?}"),
        JournalEntry::Quarantine { .. } => "Quarantine".to_string(),
        keyless => format!("{keyless:?}"),
    }
}

#[test]
fn composed_campaign_conserves_requests_and_matches_the_parent_commit() {
    let campaign = campaign();
    let service = build(&campaign);
    let requests = requests(&campaign);
    let windows: Vec<&[TuningRequest]> = campaign.batching.batches(&requests).collect();
    assert!(windows.len() >= 16, "the campaign spans many windows");

    let mut fold = Fnv::new();
    let mut reports: Vec<BatchReport> = Vec::new();
    for (index, window) in windows.iter().enumerate() {
        let report = service.serve_batch(window);
        assert_eq!(
            report.responses.len(),
            window.len(),
            "batch {index}: one response per request"
        );
        let terminal = ["served", "shed", "failed", "rejected"]
            .map(|state| counter(&service, &format!("serve_{state}_total")));
        assert_eq!(
            counter(&service, "serve_requests_total"),
            terminal.iter().sum::<u64>(),
            "batch {index}: every request in exactly one of served/shed/failed/rejected {terminal:?}"
        );
        assert!(
            service.obs().plane().energy.conservation_holds(),
            "batch {index}: attributed + idle == facility meter"
        );
        fold.text(&format!("{report:?}"));
        reports.push(report);
    }

    // the campaign must have walked every branch it exists to pin
    let saw = |wanted: fn(&ServeError) -> bool| {
        reports
            .iter()
            .flat_map(|r| &r.responses)
            .any(|r| matches!(r, Err(e) if wanted(e)))
    };
    assert!(saw(|e| *e == ServeError::UnknownTenant(UNKNOWN)));
    assert!(saw(|e| *e == ServeError::Infeasible(INFEASIBLE)));
    assert!(saw(|e| *e == ServeError::EmptyKnowledge(EMPTY)));
    assert!(saw(|e| matches!(e, ServeError::Shed { .. })));
    assert!(saw(|e| matches!(e, ServeError::WorkerFailed { .. })));
    assert!(saw(|e| *e == ServeError::Deadline));
    assert!(saw(|e| *e == ServeError::CircuitOpen { tenant: POISONED }));
    assert!(saw(|e| matches!(e, ServeError::AdmissionRejected { .. })));
    let total = |field: fn(&BatchReport) -> u64| reports.iter().map(field).sum::<u64>();
    assert!(
        total(|r| r.degraded as u64) > 0,
        "degrade tier never engaged"
    );
    assert!(
        total(|r| r.admission_shed as u64) > 0,
        "shed tier never engaged"
    );
    assert!(total(|r| r.retries) > 0, "no probe was retried");
    assert!(total(|r| r.hedges) > 0, "no straggler was hedged");
    assert!(total(|r| r.quarantined) > 0, "nothing was quarantined");
    assert!(
        service.obs().scale_events() > 0,
        "the autoscaler never moved"
    );
    assert!(service.obs().sched_steals() > 0, "no job was stolen");
    assert!(
        reports
            .iter()
            .flat_map(|r| &r.responses)
            .flatten()
            .any(|answer| answer.cache_hit),
        "nothing was answered from the cache"
    );

    fold.text(&named_state_report(&service));
    fold.text(&service.obs().invariant_exposition());
    fold.text(&service.obs().folded_trace());
    let events = service.obs().plane().trace.events();
    for layer in ["Admission", "Serve", "Sched", "Vm"] {
        assert!(
            events
                .iter()
                .any(|event| format!("{:?}", event.layer) == layer),
            "no {layer} event retained"
        );
    }
    for event in &events {
        fold.text(&format!("{event:?}"));
    }
    fold.text(&service.obs().plane().energy.report());

    let (snapshot, entries) = service.crash();
    let snapshot = snapshot.expect("the Daly cadence snapshotted");
    fold.text(&format!(
        "snapshot at={} through={} sessions={} cache={} journal={}",
        snapshot.at_s,
        snapshot.through_seq,
        snapshot.sessions.len(),
        snapshot.cache.len(),
        entries.len(),
    ));
    assert!(!entries.is_empty(), "a journal suffix past the snapshot");
    for entry in &entries {
        fold.text(&named_entry(entry));
    }

    assert_eq!(
        fold.0, GOLDEN,
        "the composed campaign no longer folds to the parent commit's digest: {:#018x}",
        fold.0
    );
}
