//! A campaign is a value.
//!
//! Every experiment and every recovery test starts from the same
//! thing: tenants, their arrivals, the optional subsystems of the
//! service, and how to batch, crash and recover it. [`Campaign`] is
//! that thing as one plain, `Debug`-printable description, and this
//! module is the only place that turns one into a [`TuningService`]:
//! [`Campaign::build`] assembles the service and registers every
//! [`Cohort`]; [`Campaign::arrivals`] merges the tenants' seeded
//! Poisson or [bursty](BurstProfile) streams; [`Batching::batches`]
//! cuts them into `serve_batch` calls that [`Campaign::drive`] serves;
//! `Campaign::recover` re-creates a crashed service *from the same
//! value*, so nothing can drift between build and recovery, and
//! [`Campaign::crash_drill`] is the recover ≡ uninterrupted check.
//!
//! All timing is virtual (arrival clocks, pool makespans), so a run is
//! a pure function of the value: byte-identical however many worker
//! threads the pool really uses. [`DriverConfig`] is shorthand for the
//! commonest campaign, and the free functions over it are calls into
//! the campaign it [describes](DriverConfig::campaign).

use crate::chaos::ChaosConfig;
use crate::docking::{docking_manager, register_docking_tenants};
use crate::journal::{JournalEntry, Snapshot};
use crate::pool::SchedConfig;
use crate::service::{
    BatchReport, Evaluator, FrontDoorConfig, ResilienceConfig, ServiceConfig, TuningRequest,
    TuningService,
};
use crate::store::{mix64, TenantClass, TenantId};
use antarex_obs::EnergyModel;
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::manager::AppManager;
use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The latency SLA every campaign tenant registers with, seconds.
const SLA_S: f64 = 0.5;

/// Salt keeping a bursty stream decorrelated from the plain one at the
/// same seed.
const BURST_SALT: u64 = 0x00B0_4575_EAD0;

/// Shorthand for a one-cohort navigation campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Concurrent tenant sessions.
    pub tenants: usize,
    /// Distinct workload archetypes shared among tenants (tenant `i`
    /// gets archetype `i % archetypes`) — the repeated-tenant structure
    /// that makes cross-tenant memoization pay.
    pub archetypes: usize,
    /// Virtual duration of the run, seconds.
    pub duration_s: f64,
    /// Mean request rate per tenant, Hz.
    pub rate_per_tenant_hz: f64,
    /// Requests arriving within one window are served as one batch.
    pub batch_window_s: f64,
    /// Master seed; tenant streams derive from it.
    pub seed: u64,
}

impl DriverConfig {
    /// A small smoke-test workload.
    pub fn smoke(seed: u64) -> Self {
        DriverConfig {
            tenants: 8,
            archetypes: 3,
            duration_s: 60.0,
            rate_per_tenant_hz: 0.2,
            batch_window_s: 5.0,
            seed,
        }
    }

    /// The campaign this shorthand describes: one [`Cohort::new`] of
    /// tenants, windowed batching, every optional subsystem off.
    pub fn campaign(&self) -> Campaign {
        Campaign {
            cohorts: vec![Cohort::new(
                self.tenants,
                self.archetypes,
                self.rate_per_tenant_hz,
            )],
            ..Campaign::new(
                self.seed,
                self.duration_s,
                Batching::Window(self.batch_window_s),
            )
        }
    }
}

/// Aggregate outcome of one driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveStats {
    /// Requests generated.
    pub requests: usize,
    /// Requests answered with a configuration.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests rejected for other reasons (infeasible SLA, ...).
    pub rejected: usize,
    /// Requests dropped by faults: worker crashes, missed deadlines,
    /// and open circuits.
    pub failed: usize,
    /// Answers that came from the design-point cache.
    pub cache_hits: usize,
    /// Probes the pool actually ran.
    pub evaluated: usize,
    /// Failed probe attempts re-dispatched with backoff.
    pub retries: u64,
    /// Hedge duplicates dispatched against stragglers.
    pub hedges: u64,
    /// Design points quarantined after failed or corrupted evaluation.
    pub quarantined: u64,
    /// Total virtual busy time of the pool (sum of batch makespans).
    pub busy_s: f64,
    /// Mean virtual service latency of served requests, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile virtual service latency, seconds.
    pub p95_latency_s: f64,
}

impl DriveStats {
    /// Served requests per second of pool busy time — the batched-
    /// evaluation throughput (infinite when everything was cached;
    /// reported as served count then).
    pub fn throughput_rps(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.served as f64 / self.busy_s
        } else {
            self.served as f64
        }
    }

    /// Cache hit fraction among served requests.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.served > 0 {
            self.cache_hits as f64 / self.served as f64
        } else {
            0.0
        }
    }

    /// Goodput: fraction of generated requests answered with a
    /// configuration — the availability figure the chaos experiment
    /// compares across hardening profiles.
    pub fn goodput(&self) -> f64 {
        if self.requests > 0 {
            self.served as f64 / self.requests as f64
        } else {
            0.0
        }
    }
}

/// Workload features of archetype `index`: time of day cycling through
/// night / morning rush / noon / evening rush, and an OD spread.
pub fn archetype_features(index: usize) -> Vec<f64> {
    let slots = [
        (3.0 * 3600.0, 0.4),
        (8.0 * 3600.0, 1.0),
        (12.0 * 3600.0, 0.6),
        (18.0 * 3600.0, 0.8),
    ];
    let (time_of_day_s, spread) = slots[index % slots.len()];
    // later archetype generations shift the clock slightly so more
    // than four archetypes stay distinct
    let generation = (index / slots.len()) as f64;
    vec![time_of_day_s + 300.0 * generation, spread]
}

/// The navigation quality knob's design-time knowledge base: optimistic
/// estimates the service corrects through online learning. Built once
/// per process; every navigation manager shares it for life and learns
/// into an overlay of its own.
fn nav_knowledge() -> Arc<KnowledgeBase> {
    static BASE: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let points = [1i64, 2, 4, 8].into_iter().map(|k| {
            let mut config = Configuration::new();
            config.set("alternatives", KnobValue::Int(k));
            OperatingPoint::new(
                config,
                [
                    ("latency".to_string(), 0.08 * k as f64),
                    ("quality".to_string(), 1.0 + (k as f64).ln() * 0.05),
                    ("power".to_string(), 5.0 + 2.0 * k as f64),
                ],
            )
        });
        Arc::new(points.collect())
    });
    Arc::clone(base)
}

/// A per-tenant runtime manager over `nav_knowledge` with the
/// standard navigation SLA (latency ≤ `sla_s`, maximize quality). It
/// costs one allocation, the constraint list: the base is shared.
pub fn nav_manager(sla_s: f64) -> AppManager {
    let mut manager = AppManager::new(nav_knowledge(), Objective::maximize("quality"));
    manager.add_constraint(Constraint::at_most("latency", sla_s));
    manager
}

/// Burst shape of a Markov-modulated Poisson arrival stream: each
/// tenant flips between a calm phase (the configured base rate) and an
/// on phase running `on_rate_multiplier` times hotter, with
/// exponentially distributed phase dwells. This is the adversarial
/// overload workload the admission-control experiment drives: bursts
/// are correlated in time, so peak demand far exceeds the mean rate a
/// capacity plan would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProfile {
    /// Rate multiplier while a tenant's burst is on (≥ 1).
    pub on_rate_multiplier: f64,
    /// Mean duration of an on phase, seconds.
    pub mean_on_s: f64,
    /// Mean duration of a calm phase, seconds.
    pub mean_off_s: f64,
}

impl BurstProfile {
    /// An aggressive profile: 20× bursts lasting ~10 s every ~30 s.
    pub fn aggressive() -> Self {
        BurstProfile {
            on_rate_multiplier: 20.0,
            mean_on_s: 10.0,
            mean_off_s: 30.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.on_rate_multiplier >= 1.0,
            "burst multiplier must be at least 1"
        );
        assert!(self.mean_on_s > 0.0, "on dwell must be positive");
        assert!(self.mean_off_s > 0.0, "off dwell must be positive");
    }
}

/// A run of tenants with consecutive ids that register and arrive
/// alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cohort {
    /// Id of the cohort's first tenant.
    pub first: TenantId,
    /// Tenants in the cohort.
    pub count: usize,
    /// Workload class the tenants register under.
    /// [`TenantClass::Docking`] tenants get the screening manager and
    /// ligand-size features drawn from the campaign seed; the other
    /// classes get the navigation manager and archetype features.
    pub class: TenantClass,
    /// Navigation archetypes shared within the cohort: tenant `t`
    /// carries archetype `t % archetypes`.
    pub archetypes: usize,
    /// Every `fresh_every`-th tenant instead carries an archetype of
    /// its own (`archetypes + t`), so its first request always probes:
    /// `0` shares every tenant's features, `1` shares none.
    pub fresh_every: usize,
    /// Mean request rate per tenant, Hz; `0.0` registers the tenants
    /// without generating arrivals for them.
    pub rate_hz: f64,
    /// Bursty instead of plain Poisson arrivals.
    pub burst: Option<BurstProfile>,
    /// Added to the campaign seed for this cohort's arrival streams;
    /// cohorts under one arrival law need distinct values.
    pub stream: u64,
}

impl Cohort {
    /// `count` [`TenantClass::Generic`] tenants from id 0 sharing
    /// `archetypes` navigation archetypes, each a plain Poisson stream
    /// at `rate_hz`.
    pub fn new(count: usize, archetypes: usize, rate_hz: f64) -> Self {
        Cohort {
            first: 0,
            count,
            class: TenantClass::Generic,
            archetypes,
            fresh_every: 0,
            rate_hz,
            burst: None,
            stream: 0,
        }
    }

    fn register<E: Evaluator>(&self, service: &TuningService<E>, seed: u64, sla_s: f64) {
        if self.class == TenantClass::Docking {
            return register_docking_tenants(service, self.first, self.count, seed, sla_s);
        }
        assert!(self.archetypes > 0, "need at least one archetype");
        for tenant in (self.first..).take(self.count) {
            let t = tenant as usize;
            let fresh = self.fresh_every > 0 && t % self.fresh_every == self.fresh_every - 1;
            let archetype = if fresh {
                self.archetypes + t
            } else {
                t % self.archetypes
            };
            // a tenant id registered twice is a caller bug; the first
            // registration stands
            let _ = service.register_tenant_classed(
                tenant,
                self.class,
                nav_manager(sla_s),
                archetype_features(archetype),
            );
        }
    }

    /// Appends every tenant's arrivals over `[0, duration_s)`, tenant
    /// by tenant, each from its own seeded stream.
    fn arrivals_into(&self, seed: u64, duration_s: f64, events: &mut Vec<TuningRequest>) {
        assert!(self.rate_hz >= 0.0, "rate must not be negative");
        if self.rate_hz == 0.0 {
            return;
        }
        let salt = self.burst.map_or(0, |profile| {
            profile.validate();
            BURST_SALT
        });
        for (index, tenant) in (self.first..).take(self.count).enumerate() {
            let mut rng = StdRng::seed_from_u64(mix64(
                seed.wrapping_add(self.stream)
                    ^ (index as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
                    ^ salt,
            ));
            let Some(profile) = self.burst else {
                poisson(&mut rng, tenant, self.rate_hz, 0.0, duration_s, events);
                continue;
            };
            let mut t = 0.0;
            let mut on = false;
            while t < duration_s {
                let (rate_hz, mean_dwell_s) = if on {
                    (self.rate_hz * profile.on_rate_multiplier, profile.mean_on_s)
                } else {
                    (self.rate_hz, profile.mean_off_s)
                };
                let u: f64 = rng.gen_range(0.0..1.0);
                let phase_end_s = (t - (1.0 - u).ln() * mean_dwell_s).min(duration_s);
                poisson(&mut rng, tenant, rate_hz, t, phase_end_s, events);
                t = phase_end_s;
                on = !on;
            }
        }
    }
}

/// Appends one tenant's Poisson arrivals at `rate_hz` over
/// `(from_s, until_s)`.
fn poisson(
    rng: &mut StdRng,
    tenant: TenantId,
    rate_hz: f64,
    from_s: f64,
    until_s: f64,
    events: &mut Vec<TuningRequest>,
) {
    let mut t = from_s;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_hz;
        if t >= until_s {
            break;
        }
        events.push(TuningRequest {
            tenant,
            arrival_s: t,
        });
    }
}

/// Sorts requests by (time, tenant) — the one total order of an arrival
/// sequence, independent of map or thread iteration. Callers that
/// append requests of their own to [`Campaign::arrivals`] re-merge with
/// this.
pub fn sort_arrivals(requests: &mut [TuningRequest]) {
    requests.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then(a.tenant.cmp(&b.tenant))
    });
}

/// How an arrival sequence is cut into `serve_batch` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Batching {
    /// Requests arriving within one window of this many seconds form a
    /// batch; windows tile the clock from zero.
    Window(f64),
    /// Every run of this many consecutive requests forms a batch.
    Count(usize),
}

impl Batching {
    /// Cuts `requests` (in arrival order) into consecutive batches,
    /// none of them empty.
    ///
    /// # Panics
    ///
    /// Panics when the window or the count is not positive.
    pub fn batches<'a>(
        self,
        requests: &'a [TuningRequest],
    ) -> impl Iterator<Item = &'a [TuningRequest]> + 'a {
        match self {
            Batching::Window(window_s) => assert!(window_s > 0.0, "window must be positive"),
            Batching::Count(count) => assert!(count > 0, "batch size must be positive"),
        }
        let mut rest = requests;
        let mut window_end = 0.0;
        std::iter::from_fn(move || {
            let first = rest.first()?;
            let len = match self {
                Batching::Count(count) => count.min(rest.len()),
                Batching::Window(window_s) => {
                    while first.arrival_s >= window_end {
                        window_end += window_s;
                    }
                    rest.iter()
                        .position(|e| e.arrival_s >= window_end)
                        .unwrap_or(rest.len())
                }
            };
            let (batch, tail) = rest.split_at(len);
            rest = tail;
            Some(batch)
        })
    }
}

/// One campaign: who the tenants are, when they ask, what the service
/// they ask is made of, and how their requests are batched.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Master seed: arrival streams and docking ligand sizes derive
    /// from it.
    pub seed: u64,
    /// Virtual duration of the arrival streams, seconds.
    pub duration_s: f64,
    /// The tenants, in registration order.
    pub cohorts: Vec<Cohort>,
    /// How arrivals are cut into batches.
    pub batching: Batching,
    /// Service sizing.
    pub service: ServiceConfig,
    /// Retry / hedge / breaker / journal profile.
    pub resilience: ResilienceConfig,
    /// Fault environment with its poisoned tenants, if any.
    pub chaos: Option<ChaosConfig>,
    /// SLO front door, if any.
    pub front_door: Option<FrontDoorConfig>,
    /// Virtual scheduler policies of the evaluation pool.
    pub sched: SchedConfig,
    /// Model attributing static and cooling energy to requests.
    pub energy: EnergyModel,
}

impl Campaign {
    /// A campaign without tenants on a default-sized service with every
    /// optional subsystem off; callers fill in the rest with struct
    /// update syntax.
    pub fn new(seed: u64, duration_s: f64, batching: Batching) -> Self {
        Campaign {
            seed,
            duration_s,
            cohorts: Vec::new(),
            batching,
            service: ServiceConfig::default(),
            resilience: ResilienceConfig::disabled(),
            chaos: None,
            front_door: None,
            sched: SchedConfig::default(),
            energy: EnergyModel::default(),
        }
    }

    /// The same campaign on a pool of `workers` physical workers — the
    /// one sizing every experiment sweeps.
    pub fn workers(mut self, workers: usize) -> Self {
        self.service.pool.workers = workers;
        self
    }

    /// The service this value describes around `evaluator` — fresh, or
    /// recovered from what a crash left on stable storage. Scheduler
    /// policy and energy model are not journaled, so both paths apply
    /// them here.
    fn assemble<E: Evaluator>(
        &self,
        evaluator: E,
        crashed: Option<(Option<Snapshot>, &[JournalEntry])>,
    ) -> TuningService<E> {
        let service = match crashed {
            Some((snapshot, entries)) => TuningService::recover(
                self.service,
                self.resilience,
                self.chaos.clone(),
                self.front_door,
                evaluator,
                snapshot,
                entries,
                &|tenant| self.manager(tenant),
            ),
            None => {
                let mut service =
                    TuningService::with_resilience(self.service, self.resilience, evaluator);
                if let Some(chaos) = &self.chaos {
                    service = service.with_chaos(chaos.clone());
                }
                if let Some(front_door) = self.front_door {
                    service = service.with_front_door(front_door);
                }
                service
            }
        };
        service
            .with_scheduler(self.sched)
            .with_energy_model(self.energy)
    }

    /// The registration-time manager of `tenant`.
    fn manager(&self, tenant: TenantId) -> AppManager {
        let docking = self.cohorts.iter().any(|cohort| {
            cohort.class == TenantClass::Docking
                && (cohort.first..cohort.first + cohort.count as TenantId).contains(&tenant)
        });
        if docking {
            docking_manager(SLA_S)
        } else {
            nav_manager(SLA_S)
        }
    }

    /// Builds the service with every cohort registered.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent sizing or controller configs, like the
    /// [`TuningService`] constructors.
    pub fn build<E: Evaluator>(&self, evaluator: E) -> TuningService<E> {
        let service = self.assemble(evaluator, None);
        for cohort in &self.cohorts {
            cohort.register(&service, self.seed, SLA_S);
        }
        service
    }

    /// Rebuilds the service after a crash from its last snapshot and
    /// the journal suffix — what [`TuningService::crash`] returns — to
    /// the crashed instance's state, bit for bit.
    pub(crate) fn recover<E: Evaluator>(
        &self,
        evaluator: E,
        snapshot: Option<Snapshot>,
        entries: &[JournalEntry],
    ) -> TuningService<E> {
        self.assemble(evaluator, Some((snapshot, entries)))
    }

    /// The merged arrival sequence of every cohort, in
    /// [`sort_arrivals`] order.
    pub fn arrivals(&self) -> Vec<TuningRequest> {
        assert!(self.duration_s > 0.0, "duration must be positive");
        let mut events = Vec::new();
        for cohort in &self.cohorts {
            cohort.arrivals_into(self.seed, self.duration_s, &mut events);
        }
        sort_arrivals(&mut events);
        events
    }

    /// Serves `requests` batch by batch, handing each batch and its
    /// report to `each`.
    ///
    /// Counts come from the service's metrics registry — the loop keeps
    /// no parallel tallies, so the run's stats and the exposition can
    /// never drift apart. Counter deltas are taken across the run,
    /// making the stats correct even on a service that already served
    /// traffic.
    pub fn drive<E: Evaluator>(
        &self,
        service: &TuningService<E>,
        requests: &[TuningRequest],
        mut each: impl FnMut(&[TuningRequest], BatchReport),
    ) -> DriveStats {
        let base = counter_snapshot(service);
        let mut busy_s = 0.0;
        let mut latencies: Vec<f64> = Vec::new();
        for batch in self.batching.batches(requests) {
            let report = service.serve_batch(batch);
            busy_s += report.makespan_s;
            latencies.extend(report.responses.iter().flatten().map(|a| a.latency_s));
            each(batch, report);
        }
        let now = counter_snapshot(service);
        let delta = |i: usize| now[i] - base[i];
        let mut stats = DriveStats {
            requests: delta(0) as usize,
            served: delta(1) as usize,
            shed: delta(2) as usize,
            rejected: delta(3) as usize,
            failed: delta(4) as usize,
            cache_hits: delta(5) as usize,
            evaluated: delta(6) as usize,
            retries: delta(7),
            hedges: delta(8),
            quarantined: delta(9),
            busy_s,
            mean_latency_s: 0.0,
            p95_latency_s: 0.0,
        };
        if !latencies.is_empty() {
            stats.mean_latency_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
            latencies.sort_by(f64::total_cmp);
            let p95 =
                ((latencies.len() as f64 * 0.95).ceil() as usize).clamp(1, latencies.len()) - 1;
            stats.p95_latency_s = latencies[p95];
        }
        stats
    }

    /// Builds the service and drives the campaign's own arrivals
    /// through it.
    pub fn run<E: Evaluator>(&self, evaluator: E) -> (TuningService<E>, DriveStats) {
        let service = self.build(evaluator);
        let stats = self.drive(&service, &self.arrivals(), |_, _| ());
        (service, stats)
    }

    /// The crash drill: serves `requests` once uninterrupted and once
    /// through a victim killed after `crash_at` batches, recovered from
    /// snapshot + journal suffix, and driven to the end.
    pub fn crash_drill<E: Evaluator + Clone>(
        &self,
        evaluator: &E,
        requests: &[TuningRequest],
        crash_at: usize,
    ) -> CrashDrill<E> {
        let served: usize = self
            .batching
            .batches(requests)
            .take(crash_at)
            .map(<[TuningRequest]>::len)
            .sum();
        let (before, after) = requests.split_at(served);
        let energy = |service: &TuningService<E>| service.obs().plane().energy.totals_nj();

        let reference = self.build(evaluator.clone());
        self.drive(&reference, before, |_, _| ());
        let at_crash = energy(&reference);
        let mut expected = Vec::new();
        self.drive(&reference, after, |_, report| expected.push(report));
        let end = energy(&reference);

        let victim = self.build(evaluator.clone());
        self.drive(&victim, before, |_, _| ());
        let (snapshot, entries) = victim.crash();
        let had_snapshot = snapshot.is_some();
        let recovered = self.recover(evaluator.clone(), snapshot, &entries);
        let mut reports = Vec::new();
        self.drive(&recovered, after, |_, report| reports.push(report));

        let expected_energy_nj = (end.0 - at_crash.0, end.1 - at_crash.1, end.2 - at_crash.2);
        CrashDrill {
            bit_identical: recovered.state_report() == reference.state_report()
                && reports == expected
                && energy(&recovered) == expected_energy_nj,
            reference,
            recovered,
            expected,
            reports,
            expected_energy_nj,
            batches_before_crash: crash_at,
            had_snapshot,
            replayed_entries: entries.len(),
        }
    }
}

/// What a [`Campaign::crash_drill`] leaves to compare.
#[derive(Debug)]
pub struct CrashDrill<E> {
    /// The uninterrupted service after its last batch.
    pub reference: TuningService<E>,
    /// The recovered service after its last batch.
    pub recovered: TuningService<E>,
    /// The uninterrupted run's reports of the batches after the crash
    /// point.
    pub expected: Vec<BatchReport>,
    /// The recovered service's reports of the same batches.
    pub reports: Vec<BatchReport>,
    /// `(facility, attributed, idle)` nanojoules the uninterrupted run
    /// metered over the batches after the crash point; the recovered
    /// service's ledger starts empty, so its totals are the same span.
    pub expected_energy_nj: (u128, u128, u128),
    /// Batches served before the crash.
    pub batches_before_crash: usize,
    /// Whether a Daly snapshot existed at the crash.
    pub had_snapshot: bool,
    /// Journal-suffix entries replayed on recovery.
    pub replayed_entries: usize,
    /// Whether recovery was exact: final state report, every report
    /// after the crash point, and the energy metered since all equal
    /// the uninterrupted run's.
    pub bit_identical: bool,
}

/// Generates the merged arrival sequence: per-tenant Poisson streams in
/// [`sort_arrivals`] order.
pub fn arrivals(config: &DriverConfig) -> Vec<TuningRequest> {
    config.campaign().arrivals()
}

/// Generates a bursty (Markov-modulated Poisson) arrival sequence:
/// every tenant alternates calm and on phases per its own seeded RNG
/// stream, emitting Poisson arrivals at the phase's rate. Sorted like
/// [`arrivals`]; a distinct stream salt keeps the bursty workload
/// decorrelated from the plain one at the same seed.
pub fn bursty_arrivals(config: &DriverConfig, profile: &BurstProfile) -> Vec<TuningRequest> {
    let mut campaign = config.campaign();
    campaign.cohorts[0].burst = Some(*profile);
    campaign.arrivals()
}

/// Snapshot of the serving counters a drive derives its stats from.
fn counter_snapshot<E: Evaluator>(service: &TuningService<E>) -> [u64; 10] {
    let obs = service.obs();
    [
        obs.requests.get(),
        obs.served.get(),
        obs.shed.get(),
        obs.rejected.get(),
        obs.failed.get(),
        obs.cache_hit_responses.get(),
        obs.evaluated.get(),
        obs.retries.get(),
        obs.hedges.get(),
        obs.cache_quarantined.get(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nav::NavEvaluator;

    /// Runs the shorthand's campaign on a `workers`-wide pool.
    fn run(config: &DriverConfig, workers: usize) -> DriveStats {
        let campaign = config.campaign().workers(workers);
        campaign.run(NavEvaluator::city(900)).1
    }

    #[test]
    fn driven_run_is_deterministic_despite_parallelism() {
        let config = DriverConfig::smoke(7);
        let a = run(&config, 4);
        let b = run(&config, 4);
        assert_eq!(a, b, "same seed, same stats — regardless of threads");
        // stats other than pool busy time are worker-count independent
        let serial = run(&config, 1);
        assert_eq!(a.served, serial.served);
        assert_eq!(a.cache_hits, serial.cache_hits);
        assert_eq!(a.evaluated, serial.evaluated);
    }

    #[test]
    fn manager_factories_share_one_base_each() {
        let factories: [fn() -> AppManager; 3] = [
            || nav_manager(0.5),
            || docking_manager(0.5),
            || crate::kernel::kernel_manager(1e-3),
        ];
        for factory in factories {
            let (a, b) = (factory(), factory());
            assert!(std::ptr::eq(a.knowledge().base(), b.knowledge().base()));
            assert!(!a.knowledge().is_empty());
        }
        let (nav, docking) = (nav_manager(0.5), docking_manager(0.5));
        assert!(!std::ptr::eq(
            nav.knowledge().base(),
            docking.knowledge().base()
        ));
    }

    #[test]
    fn arrival_streams_are_sorted_and_deterministic() {
        let profile = BurstProfile::aggressive();
        let plain: fn(&DriverConfig) -> Vec<TuningRequest> = arrivals;
        let bursty = |config: &DriverConfig| bursty_arrivals(config, &profile);
        for stream in [
            &plain as &dyn Fn(&DriverConfig) -> Vec<TuningRequest>,
            &bursty,
        ] {
            let a = stream(&DriverConfig::smoke(5));
            assert_eq!(a, stream(&DriverConfig::smoke(5)));
            assert!(!a.is_empty());
            for pair in a.windows(2) {
                assert!(pair[0].arrival_s <= pair[1].arrival_s);
            }
            assert_ne!(
                a,
                stream(&DriverConfig::smoke(6)),
                "different seeds must differ"
            );
        }
        let config = DriverConfig::smoke(5);
        assert_ne!(
            bursty(&config),
            arrivals(&config),
            "burst stream has its own salt"
        );
    }

    #[test]
    fn bursts_are_overdispersed_versus_poisson() {
        // index of dispersion (variance/mean of per-window counts):
        // ≈1 for a plain Poisson stream, well above 1 for correlated
        // bursts at the same base rate
        let dispersion = |events: &[TuningRequest], duration_s: f64| {
            let window_s = 5.0;
            let windows = (duration_s / window_s).ceil() as usize;
            let mut counts = vec![0.0f64; windows];
            for e in events {
                counts[((e.arrival_s / window_s) as usize).min(windows - 1)] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / windows as f64;
            let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / windows as f64;
            var / mean
        };
        let config = DriverConfig {
            tenants: 16,
            archetypes: 4,
            duration_s: 600.0,
            rate_per_tenant_hz: 0.2,
            batch_window_s: 5.0,
            seed: 23,
        };
        let plain = dispersion(&arrivals(&config), config.duration_s);
        let bursty = dispersion(
            &bursty_arrivals(&config, &BurstProfile::aggressive()),
            config.duration_s,
        );
        assert!(plain < 3.0, "plain Poisson dispersion ≈ 1, got {plain}");
        assert!(
            bursty > 3.0 * plain,
            "bursts must be overdispersed: bursty {bursty} vs plain {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "burst multiplier")]
    fn sub_unit_burst_multiplier_rejected() {
        let _ = bursty_arrivals(
            &DriverConfig::smoke(1),
            &BurstProfile {
                on_rate_multiplier: 0.5,
                ..BurstProfile::aggressive()
            },
        );
    }

    #[test]
    fn repeated_tenants_hit_the_cache() {
        let stats = run(&DriverConfig::smoke(11), 2);
        assert!(stats.served > 0);
        assert!(
            stats.cache_hit_rate() > 0.0,
            "8 tenants over 3 archetypes must reuse design points"
        );
        assert!(stats.evaluated < stats.served);
    }

    #[test]
    fn fault_free_run_reports_clean_chaos_counters() {
        let stats = run(&DriverConfig::smoke(17), 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.hedges, 0);
        assert_eq!(stats.quarantined, 0);
        assert!((stats.goodput() - stats.served as f64 / stats.requests as f64).abs() < 1e-12);
        assert_eq!(
            stats.served + stats.shed + stats.rejected + stats.failed,
            stats.requests
        );
    }

    #[test]
    fn more_workers_raise_virtual_throughput() {
        let config = DriverConfig {
            tenants: 32,
            archetypes: 8,
            duration_s: 120.0,
            rate_per_tenant_hz: 0.5,
            batch_window_s: 10.0,
            seed: 13,
        };
        let one = run(&config, 1);
        let four = run(&config, 4);
        assert!(
            four.throughput_rps() >= 2.0 * one.throughput_rps(),
            "4 workers {} req/s vs 1 worker {} req/s",
            four.throughput_rps(),
            one.throughput_rps()
        );
    }
}
