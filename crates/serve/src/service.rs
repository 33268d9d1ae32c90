//! The multi-tenant autotuning service.
//!
//! One service instance hosts thousands of per-application tuning
//! sessions (the paper's vision of the autotuner as a shared runtime
//! facility rather than a per-process library). A request names a
//! tenant; the service selects the tenant's best feasible operating
//! point, answers from the design-point cache when that point was
//! already measured — for *any* tenant — and otherwise batches a probe
//! onto the parallel evaluation pool. Fresh measurements flow back into
//! the tenant's knowledge base (online learning), and the per-tenant
//! power demands aggregate into the cluster power manager's budget
//! split.

mod batch;

use self::batch::BatchScratch;
use crate::admission::{AdmissionConfig, AdmissionController};
use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::breaker::{BreakerBank, BreakerConfig};
use crate::cache::{DesignPointCache, Metrics};
use crate::chaos::{ChaosConfig, HedgePolicy};
use crate::error::ServeError;
use crate::journal::{Journal, JournalEntry, Snapshot};
use crate::obs::ServeObs;
use crate::pool::{EvalPool, Evaluation, PoolConfig, SchedConfig};
use crate::store::{Selection, Session, SessionStore, TenantClass, TenantId};
use crate::FreeList;
use antarex_obs::{EnergyModel, Layer, SpanId, TraceEvent, TraceId};
use antarex_rtrm::checkpoint::daly_interval_s;
use antarex_rtrm::powercap::{split_digest, try_weighted_split_observed};
use antarex_tuner::manager::AppManager;
use antarex_tuner::Configuration;
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// Measures design points for the service.
///
/// Implementations must be pure: the same configuration and features
/// always yield the same evaluation. That is what lets the pool run
/// probes on any number of threads — and the cache reuse them across
/// tenants — without changing a single output byte.
pub trait Evaluator: Sync {
    /// Measures the metrics and virtual compute cost of a
    /// configuration under the given workload features.
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation;

    /// Like [`evaluate`](Evaluator::evaluate), but additionally breaks
    /// the probe into named sub-segments for causal tracing (e.g. the
    /// VM kernel evaluator reports its reference and tuned kernel runs
    /// separately). The returned evaluation must be identical to what
    /// `evaluate` yields for the same inputs. The default reports no
    /// segments.
    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        (self.evaluate(config, features), Vec::new())
    }
}

impl<F> Evaluator for F
where
    F: Fn(&Configuration, &[f64]) -> Evaluation + Sync,
{
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self(config, features)
    }
}

/// One named sub-phase of a probe, reported by
/// [`Evaluator::evaluate_segmented`] for the VM layer of a causal
/// trace. Purely descriptive: segments never feed back into metrics,
/// caching, or scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSegment {
    /// Segment label (e.g. `"reference"`, `"tuned"`).
    pub name: &'static str,
    /// Virtual compute cost of the segment, seconds.
    pub cost_s: f64,
    /// Metered energy of the segment, joules.
    pub energy_j: f64,
}

/// Service sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Session-store shards.
    pub store_shards: usize,
    /// Design-point-cache shards.
    pub cache_shards: usize,
    /// Evaluation-pool sizing.
    pub pool: PoolConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            store_shards: 16,
            cache_shards: 16,
            pool: PoolConfig {
                workers: 4,
                queue_capacity: 256,
            },
        }
    }
}

/// Resilience tuning of one service instance: retry/hedge/deadline
/// policy, circuit-breaker thresholds, and the write-ahead journal with
/// its Daly-informed snapshot cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Deadline, hedging, and retry budget per evaluation job.
    pub hedge: HedgePolicy,
    /// Per-tenant circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Whether state deltas are journaled (required for recovery).
    pub journaled: bool,
    /// Service-MTBF estimate fed to Daly's √(2·C·M) − C snapshot
    /// interval; must be positive when `journaled`.
    pub snapshot_mtbf_s: f64,
    /// Snapshot cost fed to the Daly interval; must be positive when
    /// `journaled`.
    pub snapshot_cost_s: f64,
}

impl ResilienceConfig {
    /// The chaos-hardened profile: hedged retries with deadlines, live
    /// breakers, journal + snapshots on a Daly cadence sized for a
    /// 5-minute service MTBF and a 0.5 s snapshot cost.
    pub fn hardened() -> Self {
        ResilienceConfig {
            hedge: HedgePolicy::hardened(),
            breaker: BreakerConfig::hardened(),
            journaled: true,
            snapshot_mtbf_s: 300.0,
            snapshot_cost_s: 0.5,
        }
    }

    /// Everything off: the pre-hardening service, byte for byte.
    pub fn disabled() -> Self {
        ResilienceConfig {
            hedge: HedgePolicy::disabled(),
            breaker: BreakerConfig::disabled(),
            journaled: false,
            snapshot_mtbf_s: 0.0,
            snapshot_cost_s: 0.0,
        }
    }

    /// The Daly snapshot interval this config implies.
    fn snapshot_interval_s(&self) -> f64 {
        if self.journaled && self.snapshot_mtbf_s > 0.0 && self.snapshot_cost_s > 0.0 {
            daly_interval_s(self.snapshot_mtbf_s, self.snapshot_cost_s)
        } else {
            f64::INFINITY
        }
    }
}

/// The SLO-driven front door: admission-control tiers plus the
/// evaluation pool's autoscaler. Optional — a service without one is
/// byte-identical to the pre-front-door serving tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Per-tenant burn-rate admission tiers.
    pub admission: AdmissionConfig,
    /// Virtual-capacity autoscaling of the evaluation pool.
    pub autoscale: AutoscaleConfig,
}

impl FrontDoorConfig {
    /// The hardened profile: both controllers at their hardened tuning.
    pub fn hardened() -> Self {
        FrontDoorConfig {
            admission: AdmissionConfig::hardened(),
            autoscale: AutoscaleConfig::hardened(),
        }
    }
}

/// The live front-door controllers of one service instance.
#[derive(Debug)]
struct FrontDoor {
    admission: AdmissionController,
    autoscaler: Autoscaler,
}

/// One tuning request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRequest {
    /// The tenant asking.
    pub tenant: TenantId,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResponse {
    /// The tenant answered.
    pub tenant: TenantId,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
    /// The configuration the tenant should deploy: the session's kept
    /// [`Selection`], shared rather than copied (it dereferences to
    /// the [`Configuration`]).
    pub config: Selection,
    /// Measured (or cached) metrics of that configuration.
    pub metrics: Metrics,
    /// Virtual service latency: cache lookup, or queue wait plus probe
    /// compute on the evaluation pool.
    pub latency_s: f64,
    /// Whether the design point came from the cache.
    pub cache_hit: bool,
    /// Attributed facility energy of this request, joules: direct
    /// metered probe (or lookup) energy plus a demand-weighted share
    /// of node static and cooling overhead. Zero until the batch's
    /// attribution pass runs; exact in integer nanojoules underneath
    /// (see [`antarex_obs::EnergyLedger`]).
    pub energy_j: f64,
}

/// Outcome of one request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-request outcomes, aligned with the submitted batch.
    pub responses: Vec<Result<TuningResponse, ServeError>>,
    /// Virtual makespan of the probes the pool ran.
    pub makespan_s: f64,
    /// Probes evaluated (batch-deduplicated misses).
    pub evaluated: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests answered in degraded (cache-only) mode by the SLO
    /// front door.
    pub degraded: usize,
    /// Requests hard-shed by the SLO front door (tenant in the shed
    /// tier).
    pub admission_shed: usize,
    /// Virtual worker capacity the batch's probes were scheduled on.
    pub capacity: usize,
    /// Failed probe attempts re-dispatched with backoff (chaos mode).
    pub retries: u64,
    /// Hedge duplicates dispatched against stragglers (chaos mode).
    pub hedges: u64,
    /// Design points quarantined after failed or corrupted evaluation.
    pub quarantined: u64,
}

/// The autotuning service.
#[derive(Debug)]
pub struct TuningService<E> {
    config: ServiceConfig,
    resilience: ResilienceConfig,
    store: SessionStore,
    cache: DesignPointCache,
    pool: EvalPool,
    evaluator: E,
    chaos: Option<ChaosConfig>,
    breakers: BreakerBank,
    journal: Option<Journal>,
    snapshot: Mutex<Option<Snapshot>>,
    next_snapshot_s: Mutex<f64>,
    front_door: Option<FrontDoor>,
    obs: ServeObs,
    energy: EnergyModel,
    /// Monotone batch ordinal feeding trace-id derivation. Counts
    /// served batches since process start; recovery restarts it at
    /// zero, which renumbers traces but never changes any served
    /// answer or attributed joule.
    batch_ordinal: AtomicU64,
    /// The working memory of finished batches, for the next ones.
    batch_scratch: FreeList<BatchScratch>,
}

impl<E: Evaluator> TuningService<E> {
    /// Creates a service around an evaluator with resilience disabled —
    /// byte-identical to the pre-hardening serving tier.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    pub fn new(config: ServiceConfig, evaluator: E) -> Self {
        Self::with_resilience(config, ResilienceConfig::disabled(), evaluator)
    }

    /// Creates a service with an explicit resilience profile.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    pub fn with_resilience(
        config: ServiceConfig,
        resilience: ResilienceConfig,
        evaluator: E,
    ) -> Self {
        let interval = resilience.snapshot_interval_s();
        // the cache and breaker bank count onto cells owned by the
        // metrics registry: module accessors and the exposition read
        // the same atomics
        let obs = ServeObs::default();
        TuningService {
            config,
            resilience,
            store: SessionStore::new(config.store_shards),
            cache: DesignPointCache::with_counters(
                config.cache_shards,
                obs.cache_hits.clone(),
                obs.cache_misses.clone(),
                obs.cache_quarantined.clone(),
            ),
            pool: EvalPool::new(config.pool),
            evaluator,
            chaos: None,
            breakers: BreakerBank::with_trip_counter(resilience.breaker, obs.breaker_trips.clone()),
            journal: resilience
                .journaled
                .then(|| Journal::new(config.store_shards)),
            snapshot: Mutex::new(None),
            next_snapshot_s: Mutex::new(interval),
            front_door: None,
            obs,
            energy: EnergyModel::default(),
            batch_ordinal: AtomicU64::new(0),
            batch_scratch: FreeList::default(),
        }
    }

    /// Overrides the energy model attributing node static and cooling
    /// overhead to requests (default: [`EnergyModel::default`]).
    pub(crate) fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Injects a deterministic fault environment: probe scheduling runs
    /// through the fault-aware list scheduler instead of the healthy
    /// one. Retries/hedges/deadlines follow the service's
    /// [`ResilienceConfig`].
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Installs the SLO-driven front door: per-tenant admission tiers
    /// (admit / degrade-to-cache / shed with a `retry_after` hint) fed
    /// by each batch's SLO outcomes, plus an autoscaler that resizes
    /// the pool's *virtual* worker capacity between configured bounds.
    /// Both controllers run on virtual time and work content only, so
    /// the fronted service stays byte-identical at any physical thread
    /// count; their state is journaled and snapshotted for exact crash
    /// recovery.
    ///
    /// # Panics
    ///
    /// Panics when either controller config is inconsistent (inverted
    /// hysteresis thresholds, zero capacity).
    pub fn with_front_door(mut self, front_door: FrontDoorConfig) -> Self {
        let autoscaler = Autoscaler::new(front_door.autoscale);
        self.obs.pool_capacity.set(autoscaler.capacity() as f64);
        self.front_door = Some(FrontDoor {
            admission: AdmissionController::new(front_door.admission),
            autoscaler,
        });
        self
    }

    /// Selects the eval pool's virtual scheduler policies (default and
    /// per tenant class). Scheduling only shapes the virtual replay —
    /// never which probes run or what they return — so it composes
    /// freely with resilience, chaos, the front door, and recovery
    /// (apply it after [`recover`](TuningService::recover); the journal
    /// records outcomes, not placement, so replay is policy-agnostic).
    pub fn with_scheduler(mut self, sched: SchedConfig) -> Self {
        self.pool = self.pool.with_sched(sched);
        self
    }

    /// Rebuilds a service after a crash from its persistent state: the
    /// last snapshot (if any) plus the journal suffix in append order.
    /// `make_manager` must be the deterministic factory original
    /// registrations used. The recovered in-memory state is
    /// bit-identical to the crashed instance's.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn recover<F>(
        config: ServiceConfig,
        resilience: ResilienceConfig,
        chaos: Option<ChaosConfig>,
        front_door: Option<FrontDoorConfig>,
        evaluator: E,
        snapshot: Option<Snapshot>,
        entries: &[JournalEntry],
        make_manager: &F,
    ) -> Self
    where
        F: Fn(TenantId) -> AppManager,
    {
        let mut service = Self::with_resilience(config, resilience, evaluator);
        if let Some(c) = chaos {
            service = service.with_chaos(c);
        }
        if let Some(fd) = front_door {
            service = service.with_front_door(fd);
        }
        if let Some(snap) = &snapshot {
            // the recovered store shares the retained snapshot's
            // sessions; replay copies the ones the suffix touches
            service.store = SessionStore::recover(config.store_shards, snap.sessions.clone());
            for (key, metrics) in &snap.cache {
                service.cache.insert(key.clone(), metrics.clone());
            }
            service.breakers.restore(&snap.breakers);
            if let Some(fd) = &service.front_door {
                fd.admission.restore(&snap.admission);
                if let Some(state) = snap.autoscaler {
                    fd.autoscaler.restore(state);
                    service.obs.pool_capacity.set(state.capacity as f64);
                }
            }
            *crate::lock_or_recover(&service.next_snapshot_s) =
                snap.at_s + resilience.snapshot_interval_s();
        }
        crate::journal::replay(
            entries,
            &service.store,
            &service.cache,
            &service.breakers,
            service
                .front_door
                .as_ref()
                .map(|fd| (&fd.admission, &fd.autoscaler)),
            make_manager,
        );
        if let Some(fd) = &service.front_door {
            service
                .obs
                .pool_capacity
                .set(fd.autoscaler.capacity() as f64);
        }
        *crate::lock_or_recover(&service.snapshot) = snapshot;
        service
    }

    /// Simulates a crash: consumes the in-memory service and returns
    /// only what a real deployment would find on stable storage — the
    /// last snapshot and the journal suffix since it.
    pub fn crash(self) -> (Option<Snapshot>, Vec<JournalEntry>) {
        let snapshot = self
            .snapshot
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let entries = self
            .journal
            .map(|j| j.entries_in_order())
            .unwrap_or_default();
        (snapshot, entries)
    }

    /// The last snapshot the service cut (or recovered from), as a
    /// [`crash`](TuningService::crash) would find it now. A clone: its
    /// sessions are shared, not copied.
    pub fn last_snapshot(&self) -> Option<Snapshot> {
        crate::lock_or_recover(&self.snapshot).clone()
    }

    /// The sizing the service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The session store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The design-point cache.
    pub fn cache(&self) -> &DesignPointCache {
        &self.cache
    }

    /// The per-tenant circuit breakers.
    pub fn breakers(&self) -> &BreakerBank {
        &self.breakers
    }

    /// The resilience profile in force.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// The admission controller, when a front door is installed.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.front_door.as_ref().map(|fd| &fd.admission)
    }

    /// The pool autoscaler, when a front door is installed.
    pub fn autoscaler(&self) -> Option<&Autoscaler> {
        self.front_door.as_ref().map(|fd| &fd.autoscaler)
    }

    /// The observability plane: metrics registry, span tracer, and
    /// per-tenant SLO burn tracking for this instance.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Appends a delta to the write-ahead journal (no-op when the
    /// service is not journaled).
    fn journal_append(&self, entry: impl FnOnce() -> JournalEntry) {
        if let Some(journal) = &self.journal {
            journal.append(entry());
        }
    }

    /// Registers a [`TenantClass::Generic`] tenant with its runtime
    /// manager and workload features.
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        manager: AppManager,
        features: Vec<f64>,
    ) -> Result<(), ServeError> {
        self.register_tenant_classed(tenant, TenantClass::Generic, manager, features)
    }

    /// Registers a tenant under an explicit workload class. The class
    /// selects the metric bucket its steals and makespans land in (the
    /// scheduler policy is the service's one
    /// [`crate::pool::SchedConfig`]); it is journaled so crash recovery
    /// restores it exactly.
    pub fn register_tenant_classed(
        &self,
        tenant: TenantId,
        class: TenantClass,
        manager: AppManager,
        features: Vec<f64>,
    ) -> Result<(), ServeError> {
        let result = self
            .store
            .insert(tenant, Session::classed(manager, features.clone(), class));
        if result.is_ok() {
            self.journal_append(|| JournalEntry::Register {
                tenant,
                features,
                class,
            });
        }
        result
    }

    /// Renders the full serving state — sessions, managers, cache
    /// entries, breakers — as one deterministic string. Two services
    /// with bit-identical state produce identical reports; the crash-
    /// recovery experiment compares exactly this.
    pub fn state_report(&self) -> String {
        let mut out = String::new();
        self.store.fold((), |(), tenant, session| {
            let _ = writeln!(
                out,
                "tenant {tenant}: class={} requests={} rejected={} power={:.6} last={:?} manager={:?}",
                session.class.label(),
                session.requests,
                session.rejected,
                session.power_demand_w,
                session.last_config,
                session.manager,
            );
        });
        for (key, metrics) in self.cache.entries() {
            let _ = writeln!(out, "cache {key:?} => {metrics:?}");
        }
        for (tenant, breaker) in self.breakers.snapshot() {
            let _ = writeln!(
                out,
                "breaker {tenant}: {} trips={}",
                breaker.state_label(),
                breaker.trips()
            );
        }
        if let Some(fd) = &self.front_door {
            for (tenant, state) in fd.admission.snapshot() {
                let _ = writeln!(
                    out,
                    "admission {tenant}: {} burn={:.9} since={:.3}",
                    state.tier.label(),
                    state.burn,
                    state.since_s,
                );
            }
            let scaler = fd.autoscaler.snapshot();
            let _ = writeln!(
                out,
                "autoscaler: capacity={} last_change={:.3} ups={} downs={}",
                scaler.capacity, scaler.last_change_s, scaler.scale_ups, scaler.scale_downs,
            );
        }
        out
    }

    /// Total power demand across every tenant's current operating
    /// point, watts — the figure the RTRM's facility capper consumes.
    pub fn aggregate_power_demand_w(&self) -> f64 {
        self.store.fold(0.0, |acc, _, s| acc + s.power_demand_w)
    }

    /// Splits a facility power budget across tenants proportionally to
    /// their demand, via the RTRM's weighted split (idle floor
    /// included). Returns `None` when no tenant is registered.
    pub fn power_split(&self, budget_w: f64) -> Option<Vec<(TenantId, f64)>> {
        let (tenants, demands) = self.store.fold(
            (Vec::new(), Vec::new()),
            |(mut tenants, mut demands), tenant, session| {
                tenants.push(tenant);
                demands.push(session.power_demand_w);
                (tenants, demands)
            },
        );
        let mut shares = Vec::new();
        try_weighted_split_observed(budget_w, &demands, &mut shares, &self.obs.powercap)?;
        // RTRM layer of the causal trace: a cap decision is not tied
        // to one request, so its trace id is the split's own digest —
        // stable across runs, linked to requests by the shared store
        self.obs.plane.trace.record(TraceEvent {
            trace: TraceId(u128::from(split_digest(budget_w, &shares).max(1))),
            tenant: 0,
            layer: Layer::Rtrm,
            name: "power_split",
            start_s: 0.0,
            end_s: 0.0,
            value: budget_w,
            span: SpanId::NONE,
        });
        Some(tenants.into_iter().zip(shares).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionTier;
    use crate::cache::{probe_seed, DesignKey};
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{KnobValue, KnowledgeBase, OperatingPoint};

    fn config(level: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(level));
        c
    }

    fn kb() -> KnowledgeBase {
        (1..=4)
            .map(|l| {
                OperatingPoint::new(
                    config(l),
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("quality".to_string(), l as f64),
                        ("power".to_string(), 10.0 * l as f64),
                    ],
                )
            })
            .collect()
    }

    fn manager() -> AppManager {
        let mut m = AppManager::new(kb(), Objective::maximize("quality"));
        m.add_constraint(Constraint::at_most("latency", 0.45));
        m
    }

    /// Probe: latency proportional to level, quality to sqrt(level),
    /// power to level; cost = latency.
    struct Probe;

    impl Evaluator for Probe {
        fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
            let level = config.get_int("level").unwrap_or(1) as f64;
            let scale = features.first().copied().unwrap_or(1.0);
            let latency = 0.1 * level * scale;
            Evaluation {
                metrics: [
                    ("latency".to_string(), latency),
                    ("quality".to_string(), level.sqrt()),
                    ("power".to_string(), 10.0 * level),
                ]
                .into_iter()
                .collect(),
                cost_s: latency,
                energy_j: 10.0 * level * latency,
            }
        }
    }

    fn service() -> TuningService<Probe> {
        TuningService::new(ServiceConfig::default(), Probe)
    }

    fn requests(tenants: &[TenantId]) -> Vec<TuningRequest> {
        tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| TuningRequest {
                tenant,
                arrival_s: i as f64,
            })
            .collect()
    }

    /// Shifts a batch's arrivals to start at `t0` seconds.
    trait MapArrival {
        fn map_arrival(self, t0: impl Into<f64>) -> Self;
    }

    impl MapArrival for Vec<TuningRequest> {
        fn map_arrival(mut self, t0: impl Into<f64>) -> Self {
            let t0 = t0.into();
            for request in &mut self {
                request.arrival_s += t0;
            }
            self
        }
    }

    #[test]
    fn cache_reuses_design_points_across_tenants() {
        let service = service();
        for tenant in 0..4 {
            service
                .register_tenant(tenant, manager(), vec![1.0])
                .unwrap();
        }
        // all four tenants select the same point on identical features:
        // one probe, three cache hits
        let report = service.serve_batch(&requests(&[0, 1, 2, 3]));
        assert_eq!(report.evaluated, 1);
        let hits = report
            .responses
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|a| a.cache_hit))
            .count();
        assert_eq!(hits, 3);
        assert!(service.cache().hit_rate() > 0.0);
    }

    #[test]
    fn unknown_tenant_is_an_error_not_a_panic() {
        let service = service();
        let report = service.serve_batch(&requests(&[99]));
        assert_eq!(report.responses[0], Err(ServeError::UnknownTenant(99)));
    }

    #[test]
    fn infeasible_sla_reports_typed_error() {
        let service = service();
        let mut m = AppManager::new(kb(), Objective::maximize("quality"));
        m.add_constraint(Constraint::at_most("latency", 0.001));
        service.register_tenant(7, m, vec![1.0]).unwrap();
        let report = service.serve_batch(&requests(&[7]));
        assert_eq!(report.responses[0], Err(ServeError::Infeasible(7)));
        assert_eq!(service.store().read(7, |s| s.rejected).unwrap(), 1);
    }

    #[test]
    fn empty_knowledge_reports_typed_error() {
        let service = service();
        let m = AppManager::new(KnowledgeBase::new(), Objective::maximize("quality"));
        service.register_tenant(5, m, vec![1.0]).unwrap();
        let report = service.serve_batch(&requests(&[5]));
        assert_eq!(report.responses[0], Err(ServeError::EmptyKnowledge(5)));
    }

    #[test]
    fn overflow_is_shed_not_stalled() {
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 2,
            },
            ..ServiceConfig::default()
        };
        let service = TuningService::new(config, Probe);
        // distinct features per tenant → no cache sharing, one job each
        for tenant in 0..5u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + tenant as f64])
                .unwrap();
        }
        let report = service.serve_batch(&requests(&[0, 1, 2, 3, 4]));
        assert_eq!(report.evaluated, 2);
        assert_eq!(report.shed, 3);
        let shed_errors = report
            .responses
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Shed { .. })))
            .count();
        assert_eq!(shed_errors, 3);
    }

    #[test]
    fn online_learning_downgrades_an_optimistic_tenant() {
        let service = service();
        // the design-time KB promised level 4 at 0.4 s, but this
        // tenant's workload (features scale 2.0) measures 0.8 s — over
        // the 0.45 s SLA; after learning, the manager must walk down
        service.register_tenant(1, manager(), vec![2.0]).unwrap();
        let mut level = 4;
        for round in 0..6 {
            let report = service.serve_batch(&[TuningRequest {
                tenant: 1,
                arrival_s: round as f64,
            }]);
            if let Ok(answer) = &report.responses[0] {
                level = answer.config.get_int("level").unwrap();
            }
        }
        assert!(level < 4, "learned latency must force a downgrade: {level}");
    }

    /// Every answer's shared key and seed are what
    /// `DesignKey::new` / `probe_seed` derive from its configuration
    /// and the tenant's current features.
    fn assert_selections_fresh<E: Evaluator>(service: &TuningService<E>, report: &BatchReport) {
        let mut answers = 0;
        for answer in report.responses.iter().flatten() {
            let features = service
                .store()
                .read(answer.tenant, |s| s.features.clone())
                .unwrap();
            let config: &Configuration = &answer.config;
            assert_eq!(answer.config.key(), &DesignKey::new(config, &features));
            assert_eq!(answer.config.seed(), probe_seed(config, &features));
            answers += 1;
        }
        assert!(answers > 0, "the batch answered");
    }

    #[test]
    fn a_switch_made_by_adapt_rebuilds_the_selection() {
        // as above: level 4 measures over the SLA, so adapt walks the
        // tenant down; every request in between reuses the selection
        let service = service();
        service.register_tenant(1, manager(), vec![2.0]).unwrap();
        let mut previous: Option<TuningResponse> = None;
        let (mut switches, mut reuses) = (0, 0);
        for round in 0..6 {
            let report = service.serve_batch(&requests(&[1, 1]).map_arrival(round));
            assert_selections_fresh(&service, &report);
            for answer in report.responses.into_iter().flatten() {
                if let Some(before) = &previous {
                    // the key's address names the selection's block
                    let shared = std::ptr::eq(before.config.key(), answer.config.key());
                    if before.config == answer.config {
                        assert!(shared, "an unchanged selection is shared");
                        reuses += 1;
                    } else {
                        assert!(!shared);
                        switches += 1;
                    }
                }
                previous = Some(answer);
            }
        }
        assert!(switches > 0, "adapt switched the tenant");
        assert!(reuses > 0);
        assert_eq!(
            u64::try_from(switches).unwrap(),
            service.store().read(1, |s| s.manager.switches()).unwrap()
        );
    }

    #[test]
    fn editing_the_features_rebuilds_the_selection() {
        // one operating point: the manager never switches, so only the
        // features can change the selection
        let only: KnowledgeBase = [OperatingPoint::new(
            config(2),
            [("latency".to_string(), 0.2), ("quality".to_string(), 2.0)],
        )]
        .into_iter()
        .collect();
        let service = service();
        let manager = AppManager::new(only, Objective::maximize("quality"));
        service.register_tenant(4, manager, vec![1.0]).unwrap();
        let serve = |t0: u32| {
            let report = service.serve_batch(&requests(&[4]).map_arrival(t0));
            assert_selections_fresh(&service, &report);
            report
        };
        let first = serve(0);
        // other features: a new design point, so a new probe
        service.store().with(4, |s| s.features = vec![1.5]).unwrap();
        let second = serve(1);
        assert_eq!(second.evaluated, 1, "the old key must not answer");
        // features that quantize alike keep the selection
        service
            .store()
            .with(4, |s| s.features = vec![1.5 + 1e-9])
            .unwrap();
        let third = serve(2);
        assert_eq!(third.evaluated, 0);
        let [a, b, c] = [&first, &second, &third].map(|r| r.responses[0].as_ref().unwrap());
        assert!(a.config == b.config && b.config == c.config);
        assert_ne!(a.config.key(), b.config.key());
        assert_ne!(a.config.seed(), b.config.seed());
        // the key lives in the selection's shared block, so its address
        // names the block: the new features built a new one, around the
        // same knowledge point's configuration
        assert!(!std::ptr::eq(a.config.key(), b.config.key()));
        assert!(std::ptr::eq(b.config.key(), c.config.key()));
        assert!(std::ptr::eq(&*a.config, &*b.config));
    }

    #[test]
    fn a_recovered_service_derives_fresh_selections() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let victim = TuningService::with_resilience(config, resilience, Probe);
        for tenant in 0..4u64 {
            victim
                .register_tenant(tenant, factory(tenant), vec![2.0 + (tenant % 2) as f64])
                .unwrap();
        }
        // snapshot mid-way (the Daly interval is ≈16.8 s), then a
        // journal suffix in which adapt switches tenants
        for t0 in [0.0, 6.0, 20.0, 30.0] {
            victim.serve_batch(&requests(&[0, 1, 2, 3]).map_arrival(t0));
        }
        let (snapshot, entries) = victim.crash();
        assert!(snapshot.is_some() && !entries.is_empty());
        let recovered = TuningService::recover(
            config, resilience, None, None, Probe, snapshot, &entries, &factory,
        );
        for t0 in [36.0, 42.0] {
            let report = recovered.serve_batch(&requests(&[0, 1, 2, 3]).map_arrival(t0));
            assert_selections_fresh(&recovered, &report);
        }
    }

    #[test]
    fn power_demand_aggregates_and_splits() {
        let service = service();
        for tenant in 0..3 {
            service
                .register_tenant(tenant, manager(), vec![1.0])
                .unwrap();
        }
        assert_eq!(service.power_split(300.0).unwrap().len(), 3);
        assert_eq!(service.aggregate_power_demand_w(), 0.0);
        service.serve_batch(&requests(&[0, 1, 2]));
        let demand = service.aggregate_power_demand_w();
        assert!(demand > 0.0, "served tenants must report demand");
        let split = service.power_split(300.0).unwrap();
        let total: f64 = split.iter().map(|(_, w)| w).sum();
        assert!((total - 300.0).abs() < 1e-9, "budget conserved: {total}");
    }

    #[test]
    fn empty_service_has_no_power_split() {
        let service = service();
        assert!(service.power_split(100.0).is_none());
    }

    #[test]
    fn batches_are_deterministic_across_runs() {
        let build = || {
            let service = service();
            for tenant in 0..8 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + (tenant % 3) as f64])
                    .unwrap();
            }
            service
        };
        let batch = requests(&[0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 6]);
        let a = build().serve_batch(&batch);
        let b = build().serve_batch(&batch);
        assert_eq!(a, b, "parallel evaluation must not leak into outputs");
    }

    use antarex_sim::faults::{FaultConfig, FaultSchedule};

    fn quiet_schedule(nodes: usize) -> FaultSchedule {
        FaultSchedule::generate(&FaultConfig::none(1), nodes, 10_000.0)
    }

    #[test]
    fn quiet_chaos_with_hardened_resilience_matches_plain_service() {
        let register = |service: &TuningService<Probe>| {
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
        };
        let plain = service();
        register(&plain);
        let hardened = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(ChaosConfig::new(quiet_schedule(4)));
        register(&hardened);

        for round in 0..3 {
            let batch: Vec<TuningRequest> = (0..4u64)
                .map(|t| TuningRequest {
                    tenant: t,
                    arrival_s: 10.0 * round as f64 + t as f64,
                })
                .collect();
            let a = plain.serve_batch(&batch);
            let b = hardened.serve_batch(&batch);
            // identical up to float round-off: the chaos path measures
            // completions in absolute virtual time and re-bases them,
            // which can move the last ulp of a latency
            assert_eq!(a.responses.len(), b.responses.len());
            for (ra, rb) in a.responses.iter().zip(&b.responses) {
                let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
                assert_eq!(ra.config, rb.config);
                assert_eq!(ra.metrics, rb.metrics);
                assert_eq!(ra.cache_hit, rb.cache_hit);
                assert!((ra.latency_s - rb.latency_s).abs() < 1e-9);
            }
            assert!((a.makespan_s - b.makespan_s).abs() < 1e-9);
            assert_eq!(b.retries, 0);
            assert_eq!(b.hedges, 0);
            assert_eq!(b.quarantined, 0);
        }
    }

    #[test]
    fn poisoned_tenant_trips_breaker_and_fails_fast() {
        let chaos = ChaosConfig::new(quiet_schedule(4)).poison(9);
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(chaos);
        service.register_tenant(9, manager(), vec![1.0]).unwrap();

        // one coalesced job; every attempt fails the integrity check
        let report = service.serve_batch(&requests(&[9, 9, 9]));
        assert!(report
            .responses
            .iter()
            .all(|r| matches!(r, Err(ServeError::WorkerFailed { .. }))));
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            report.retries,
            u64::from(HedgePolicy::hardened().max_retries)
        );
        assert!(
            service.cache().entries().is_empty(),
            "corrupt results never memoize"
        );

        // three consecutive failures opened the circuit: within the
        // cooldown the tenant fails fast without reaching the pool
        let report = service.serve_batch(&[TuningRequest {
            tenant: 9,
            arrival_s: 3.0,
        }]);
        assert_eq!(
            report.responses[0],
            Err(ServeError::CircuitOpen { tenant: 9 })
        );
        assert_eq!(report.evaluated, 0);
        assert_eq!(service.breakers().total_trips(), 1);
        assert_eq!(service.store().read(9, |s| s.rejected).unwrap(), 4);
    }

    #[test]
    fn shed_jobs_bypass_the_retry_machinery() {
        // admission control sheds before the chaos scheduler ever sees
        // a job: a shed request burns no retries, no backoff, and no
        // breaker budget, while admitted jobs still go through the
        // fault-aware scheduler
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 2,
            },
            ..ServiceConfig::default()
        };
        let service = TuningService::with_resilience(config, ResilienceConfig::hardened(), Probe)
            .with_chaos(ChaosConfig::new(quiet_schedule(2)));
        // distinct features per tenant → five distinct design points
        for tenant in 0..5u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + 0.1 * tenant as f64])
                .unwrap();
        }
        let report = service.serve_batch(&requests(&[0, 1, 2, 3, 4]));
        assert_eq!(report.evaluated, 2);
        assert_eq!(report.shed, 3);
        assert_eq!(report.retries, 0);
        assert_eq!(report.quarantined, 0);
        assert_eq!(service.breakers().total_trips(), 0);
        assert!(report.responses[0].is_ok());
        assert!(report.responses[1].is_ok());
    }

    #[test]
    fn crash_recovery_replays_bit_identically() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let build = || {
            let service = TuningService::with_resilience(config, resilience, Probe);
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, factory(tenant), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
            service
        };
        let batch_at = |t0: f64| -> Vec<TuningRequest> {
            (0..4u64)
                .map(|tenant| TuningRequest {
                    tenant,
                    arrival_s: t0 + 0.5 * tenant as f64,
                })
                .collect()
        };
        // windows chosen so the Daly interval (√(2·0.5·300) − 0.5 ≈
        // 16.8 s) fires between the third and fourth: the crash state
        // is a snapshot plus a non-empty journal suffix
        let windows = [0.0, 6.0, 20.0, 30.0, 36.0];

        let reference = build();
        for &t0 in &windows {
            reference.serve_batch(&batch_at(t0));
        }

        let victim = build();
        for &t0 in &windows[..4] {
            victim.serve_batch(&batch_at(t0));
        }
        let (snapshot, entries) = victim.crash();
        assert!(snapshot.is_some(), "Daly cadence must have snapshotted");
        assert!(!entries.is_empty(), "suffix after the snapshot expected");
        let recovered = TuningService::recover(
            config, resilience, None, None, Probe, snapshot, &entries, &factory,
        );
        recovered.serve_batch(&batch_at(windows[4]));

        let report = recovered.state_report();
        assert!(!report.is_empty());
        assert_eq!(report, reference.state_report(), "recovery must be exact");
    }

    /// Front door + poisoned evaluator, breakers off: the tenant walks
    /// the whole admission lifecycle — Admit → Degrade (cache-only) →
    /// Shed (hard reject with a retry hint) → decay back to Degrade —
    /// purely from the SLO feedback its own failing probes generate.
    #[test]
    fn front_door_walks_a_burning_tenant_through_the_tiers() {
        let resilience = ResilienceConfig {
            breaker: BreakerConfig::disabled(),
            ..ResilienceConfig::hardened()
        };
        let service = TuningService::with_resilience(ServiceConfig::default(), resilience, Probe)
            .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(9))
            .with_front_door(FrontDoorConfig::hardened());
        service.register_tenant(9, manager(), vec![1.0]).unwrap();
        let admission = || service.admission().unwrap().tier(9);
        let batch = |t: f64| {
            service.serve_batch(&[TuningRequest {
                tenant: 9,
                arrival_s: t,
            }])
        };

        // window 1: every probe attempt fails → all-violation window
        let report = batch(0.0);
        assert!(matches!(
            report.responses[0],
            Err(ServeError::WorkerFailed { .. })
        ));
        assert_eq!(admission(), AdmissionTier::Degrade, "one bad window");

        // window 2: degraded and cache-empty → probe demand rejected,
        // which burns further and escalates past the shed threshold
        let report = batch(5.0);
        assert_eq!(report.degraded, 1);
        assert!(matches!(
            &report.responses[0],
            Err(ServeError::AdmissionRejected { tenant: 9, .. })
        ));
        assert_eq!(admission(), AdmissionTier::Shed);

        // window 3: hard shed before select — carries a retry hint and
        // contributes no burn, so the tenant starts to decay
        let report = batch(10.0);
        assert_eq!(report.admission_shed, 1);
        assert_eq!(report.evaluated, 0);
        let rejection = report.responses[0].as_ref().unwrap_err();
        assert!(
            matches!(
                rejection,
                ServeError::AdmissionRejected { retry_after_ms, .. } if *retry_after_ms >= 5000
            ),
            "{rejection:?}"
        );

        // quiet windows: zero-sample decay de-escalates through the
        // exit hysteresis back to degraded service
        let mut tier = admission();
        for round in 0..6 {
            batch(15.0 + 5.0 * round as f64);
            tier = admission();
            if tier != AdmissionTier::Shed {
                break;
            }
        }
        assert_eq!(tier, AdmissionTier::Degrade, "shed must not be forever");
    }

    /// A tenant that is simultaneously over its SLO budget (shed tier)
    /// and circuit-open fails fast through exactly ONE path: the front
    /// door rejects before the breaker is consulted, so no extra
    /// breaker trips, no `BreakerAllow` journal traffic, and exactly
    /// one rejection is booked per request.
    #[test]
    fn shed_tier_and_open_breaker_fail_through_one_path() {
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(9))
        .with_front_door(FrontDoorConfig::hardened());
        service.register_tenant(9, manager(), vec![1.0]).unwrap();

        // three failed attempts open the circuit (trips = 1) and the
        // all-violation window degrades the tenant
        service.serve_batch(&requests(&[9, 9, 9]));
        assert_eq!(service.breakers().total_trips(), 1);
        assert_eq!(service.admission().unwrap().tier(9), AdmissionTier::Degrade);
        // degraded probe demand keeps burning until the shed threshold
        let mut tier = AdmissionTier::Degrade;
        for round in 1..6 {
            service.serve_batch(&[TuningRequest {
                tenant: 9,
                arrival_s: 5.0 * round as f64,
            }]);
            tier = service.admission().unwrap().tier(9);
            if tier == AdmissionTier::Shed {
                break;
            }
        }
        assert_eq!(tier, AdmissionTier::Shed);
        let trips_before = service.breakers().total_trips();
        let rejected_before = service.store().read(9, |s| s.rejected).unwrap();

        let report = service.serve_batch(&[TuningRequest {
            tenant: 9,
            arrival_s: 60.0,
        }]);
        // the admission rejection wins; the breaker is never consulted
        assert!(matches!(
            &report.responses[0],
            Err(ServeError::AdmissionRejected { tenant: 9, .. })
        ));
        assert_eq!(report.admission_shed, 1);
        assert_eq!(report.evaluated, 0);
        assert_eq!(service.breakers().total_trips(), trips_before);
        assert_eq!(
            service.store().read(9, |s| s.rejected).unwrap(),
            rejected_before + 1,
            "exactly one rejection booked"
        );
    }

    #[test]
    fn autoscaler_grows_capacity_under_probe_pressure() {
        let service = TuningService::new(ServiceConfig::default(), Probe)
            .with_front_door(FrontDoorConfig::hardened());
        // 24 tenants with distinct features → 24 distinct probes in one
        // window: 6 per virtual worker exceeds queue_high = 4
        for tenant in 0..24u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + 0.01 * tenant as f64])
                .unwrap();
        }
        let batch: Vec<TuningRequest> = (0..24u64)
            .map(|t| TuningRequest {
                tenant: t,
                arrival_s: 0.1 * t as f64,
            })
            .collect();
        let report = service.serve_batch(&batch);
        assert_eq!(report.capacity, 8, "4 doubled under pressure");
        assert_eq!(service.autoscaler().unwrap().capacity(), 8);
        assert_eq!(service.obs().pool_capacity.get(), 8.0);
        // calm traffic after the cooldown shrinks capacity additively
        let report = service.serve_batch(&[TuningRequest {
            tenant: 0,
            arrival_s: 10.0,
        }]);
        assert_eq!(report.capacity, 7);
    }

    #[test]
    fn front_door_outputs_are_physical_worker_invariant() {
        let run = |workers: usize| {
            let service = TuningService::new(
                ServiceConfig {
                    pool: PoolConfig {
                        workers,
                        queue_capacity: 256,
                    },
                    ..ServiceConfig::default()
                },
                Probe,
            )
            .with_front_door(FrontDoorConfig::hardened());
            for tenant in 0..24u64 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + 0.01 * tenant as f64])
                    .unwrap();
            }
            let mut reports = Vec::new();
            for round in 0..4 {
                let batch: Vec<TuningRequest> = (0..24u64)
                    .map(|t| TuningRequest {
                        tenant: t,
                        arrival_s: 5.0 * round as f64 + 0.1 * t as f64,
                    })
                    .collect();
                reports.push(service.serve_batch(&batch));
            }
            (reports, service.state_report())
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "virtual capacity must decouple from threads");
    }

    #[test]
    fn recovery_from_journal_alone_rebuilds_registrations() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let service = TuningService::with_resilience(config, resilience, Probe);
        service.register_tenant(3, factory(3), vec![2.0]).unwrap();
        service.serve_batch(&requests(&[3, 3]));
        let before = service.state_report();

        // crash before any snapshot: recovery replays from seq 0
        let (snapshot, entries) = service.crash();
        assert!(snapshot.is_none());
        let recovered = TuningService::recover(
            config, resilience, None, None, Probe, snapshot, &entries, &factory,
        );
        assert_eq!(recovered.state_report(), before);
        assert_eq!(recovered.store().read(3, |s| s.requests).unwrap(), 2);
    }
}
