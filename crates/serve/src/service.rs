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

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionTier};
use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::breaker::{BreakerBank, BreakerConfig};
use crate::cache::{probe_seed, DesignKey, DesignPointCache, Metrics};
use crate::chaos::{chaos_schedule, ChaosConfig, HedgePolicy};
use crate::error::ServeError;
use crate::journal::{take_snapshot, Journal, JournalEntry, Snapshot};
use crate::obs::{ServeObs, ADAPT_SPAN_S, CACHE_PROBE_SPAN_S, LEARN_SPAN_S, SELECT_SPAN_S};
use crate::pool::{EvalJob, EvalPool, Evaluation, PoolConfig, SchedConfig};
use crate::store::{Session, SessionStore, TenantClass, TenantId};
use antarex_obs::{
    largest_remainder_split, nj_to_j, to_nj, EnergyModel, Layer, SpanId, TraceCtx, TraceEvent,
    TraceId, WindowSummary,
};
use antarex_rtrm::checkpoint::daly_interval_s;
use antarex_rtrm::powercap::{split_digest, try_weighted_split_observed};
use antarex_tuner::manager::AppManager;
use antarex_tuner::Configuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Virtual cost of answering from the cache, seconds.
const CACHE_LOOKUP_S: f64 = 1e-4;

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
    /// The configuration the tenant should deploy.
    pub config: Configuration,
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
        }
    }

    /// Overrides the energy model attributing node static and cooling
    /// overhead to requests (default: [`EnergyModel::default`]).
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
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
            *lock_or_recover(&service.next_snapshot_s) =
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
        *lock_or_recover(&service.snapshot) = snapshot;
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
    /// selects the scheduler policy its probes are replayed with (per
    /// the pool's [`crate::pool::SchedConfig`]) and the
    /// metric bucket its makespans land in; it is journaled so crash
    /// recovery restores it exactly.
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

    /// Serves one batch of requests.
    ///
    /// The batch is processed in arrival order: operating points are
    /// selected per tenant (tenants with an open circuit fail fast
    /// first), cache misses are deduplicated and evaluated in parallel
    /// (bounded queue; overflow is shed). Under an injected
    /// [`ChaosConfig`] each probe is replayed through the fault-aware
    /// scheduler — crashes retried with capped backoff, stragglers
    /// hedged, results integrity-checked, deadlines enforced. Verified
    /// results land in the cache and in each tenant's knowledge base;
    /// failed design points are quarantined so waiters re-probe;
    /// breakers take success/failure feedback; and every touched tenant
    /// runs one adaptation round at the batch's end time. When
    /// journaling is on, every mutation is appended to the WAL first
    /// and a snapshot is taken on the Daly cadence.
    pub fn serve_batch(&self, requests: &[TuningRequest]) -> BatchReport {
        // 1. select per request, splitting cache hits from misses
        enum Pending {
            Err(ServeError),
            Hit(Configuration, Metrics),
            Job {
                config: Configuration,
                job_id: usize,
                coalesced: bool,
            },
        }
        self.obs.requests.add(requests.len() as u64);
        let breaker_on = self.resilience.breaker.failure_threshold > 0;
        let mut pending: Vec<Pending> = Vec::with_capacity(requests.len());
        let mut jobs: Vec<EvalJob> = Vec::new();
        let mut job_of_key: BTreeMap<DesignKey, usize> = BTreeMap::new();
        let mut degraded = 0usize;
        let mut admission_shed = 0usize;
        // causal tracing: every request derives a TraceCtx from
        // (tenant, probe seed, batch ordinal, position) — no wall
        // clock — so trace ids are byte-identical at any worker count.
        // One (ctx, class) row per request, aligned with `pending`.
        let batch_ordinal = self.batch_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut req_meta: Vec<(TraceCtx, TenantClass)> = Vec::with_capacity(requests.len());
        let record_admission = |ctx: TraceCtx, arrival_s: f64, tier_name: &'static str| {
            if ctx.sampled {
                self.obs.plane.trace.record(TraceEvent {
                    trace: ctx.id,
                    tenant: ctx.tenant,
                    layer: Layer::Admission,
                    name: tier_name,
                    start_s: arrival_s,
                    end_s: arrival_s,
                    value: 0.0,
                    span: SpanId::NONE,
                });
            }
        };
        for request in requests {
            // the SLO front door runs first: a shed-tier tenant is
            // rejected before it costs a breaker check, a select, or
            // pool capacity — exactly one fail-fast path per request
            let tier = self
                .front_door
                .as_ref()
                .map(|fd| fd.admission.tier(request.tenant))
                .unwrap_or(AdmissionTier::Admit);
            if tier == AdmissionTier::Shed {
                admission_shed += 1;
                self.obs.admission_shed.inc();
                let retry_after_ms = self
                    .front_door
                    .as_ref()
                    .map(|fd| fd.admission.retry_after_ms(request.tenant))
                    .unwrap_or(0);
                let ctx = self.obs.plane.trace.derive(
                    request.tenant,
                    0,
                    batch_ordinal,
                    req_meta.len() as u32,
                );
                record_admission(ctx, request.arrival_s, "shed");
                req_meta.push((ctx, TenantClass::Generic));
                pending.push(Pending::Err(ServeError::AdmissionRejected {
                    tenant: request.tenant,
                    retry_after_ms,
                }));
                continue;
            }
            // fail fast for tenants whose circuit is open: the request
            // costs a breaker check, not pool capacity
            if breaker_on
                && !self
                    .breakers
                    .with(request.tenant, |b| b.allow(request.arrival_s))
            {
                let ctx = self.obs.plane.trace.derive(
                    request.tenant,
                    0,
                    batch_ordinal,
                    req_meta.len() as u32,
                );
                record_admission(ctx, request.arrival_s, "circuit_open");
                req_meta.push((ctx, TenantClass::Generic));
                pending.push(Pending::Err(ServeError::CircuitOpen {
                    tenant: request.tenant,
                }));
                continue;
            }
            if breaker_on {
                self.journal_append(|| JournalEntry::BreakerAllow {
                    tenant: request.tenant,
                    time_s: request.arrival_s,
                });
            }
            let selected = self.store.with(request.tenant, |session| {
                if session.manager.knowledge().is_empty() {
                    return Err(ServeError::EmptyKnowledge(request.tenant));
                }
                match session.manager.select() {
                    Some(config) => Ok((config.clone(), session.features.clone(), session.class)),
                    None => Err(ServeError::Infeasible(request.tenant)),
                }
            });
            // `select()` mutates the manager (deploy/switch): journal it
            // whenever it ran, even when it found the SLA infeasible
            if matches!(&selected, Ok(Ok(_)) | Ok(Err(ServeError::Infeasible(_)))) {
                self.obs.selects.inc();
                self.journal_append(|| JournalEntry::Select {
                    tenant: request.tenant,
                });
            }
            let seq = req_meta.len() as u32;
            let mut ctx = self
                .obs
                .plane
                .trace
                .derive(request.tenant, 0, batch_ordinal, seq);
            let mut req_class = TenantClass::Generic;
            let entry = match selected {
                Err(e) | Ok(Err(e)) => Pending::Err(e),
                Ok(Ok((config, features, class))) if tier == AdmissionTier::Degrade => {
                    // degraded tier: cache-only service. A memoized
                    // design point still answers (cheap, no pool), but
                    // the tenant gets no fresh probe — cache-miss
                    // demand is rejected and fed back as violation
                    // pressure so a probe-hungry tenant escalates to
                    // shed while a coasting one recovers
                    degraded += 1;
                    self.obs.admission_degraded.inc();
                    ctx = self.obs.plane.trace.derive(
                        request.tenant,
                        probe_seed(&config, &features),
                        batch_ordinal,
                        seq,
                    );
                    req_class = class;
                    let key = DesignKey::new(&config, &features);
                    match self.cache.get(&key) {
                        Some(metrics) => Pending::Hit(config, metrics),
                        None => Pending::Err(ServeError::AdmissionRejected {
                            tenant: request.tenant,
                            retry_after_ms: self
                                .front_door
                                .as_ref()
                                .map(|fd| fd.admission.retry_after_ms(request.tenant))
                                .unwrap_or(0),
                        }),
                    }
                }
                Ok(Ok((config, features, class))) => {
                    ctx = self.obs.plane.trace.derive(
                        request.tenant,
                        probe_seed(&config, &features),
                        batch_ordinal,
                        seq,
                    );
                    req_class = class;
                    let key = DesignKey::new(&config, &features);
                    if let Some(&job_id) = job_of_key.get(&key) {
                        // an earlier request in this batch already queued
                        // this exact design point: coalesce onto it
                        Pending::Job {
                            config,
                            job_id,
                            coalesced: true,
                        }
                    } else {
                        match self.cache.get(&key) {
                            Some(metrics) => Pending::Hit(config, metrics),
                            None => {
                                let job_id = jobs.len();
                                // the job carries the first owner's
                                // trace: sched/VM events link to it
                                jobs.push(EvalJob {
                                    id: job_id,
                                    tenant: request.tenant,
                                    class,
                                    config: config.clone(),
                                    features,
                                    trace: ctx,
                                });
                                job_of_key.insert(key, job_id);
                                Pending::Job {
                                    config,
                                    job_id,
                                    coalesced: false,
                                }
                            }
                        }
                    }
                }
            };
            record_admission(
                ctx,
                request.arrival_s,
                match tier {
                    AdmissionTier::Admit => "admit",
                    AdmissionTier::Degrade => "degrade",
                    AdmissionTier::Shed => "shed",
                },
            );
            req_meta.push((ctx, req_class));
            pending.push(entry);
        }

        let batch_start_s = requests
            .iter()
            .map(|r| r.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let batch_start_s = if batch_start_s.is_finite() {
            batch_start_s
        } else {
            0.0
        };

        // autoscaling decision at the batch start: queue depth is this
        // window's deduplicated probe demand, burn is the worst EWMA
        // among still-admitted tenants. The decision resizes *virtual*
        // capacity only — physical parallelism stays at the pool's
        // config — so outputs stay byte-identical at any thread count.
        let mut capacity = self.pool.config().workers;
        if let Some(fd) = &self.front_door {
            capacity = fd.autoscaler.capacity();
            if !requests.is_empty() {
                if let Some(resized) = fd.autoscaler.decide(
                    batch_start_s,
                    jobs.len(),
                    fd.admission.max_admitted_burn(),
                ) {
                    capacity = resized;
                    self.obs.scale_events.inc();
                    self.obs.pool_capacity.set(resized as f64);
                    self.journal_append(|| JournalEntry::Scale {
                        time_s: batch_start_s,
                        workers: resized,
                    });
                }
            }
        }

        // 2. evaluate the deduplicated misses in parallel (the probes
        // are pure and computed exactly once; under chaos only the
        // virtual scheduling of those evaluations changes)
        let evaluator = &self.evaluator;
        // sampled jobs additionally report VM sub-segments for the
        // trace; the map is keyed by job id so insertion order under
        // physical parallelism cannot influence anything downstream
        let segment_stash: Mutex<BTreeMap<usize, Vec<ProbeSegment>>> = Mutex::new(BTreeMap::new());
        let outcome = self
            .pool
            .evaluate_batch_on(jobs, capacity, &|job: &EvalJob| {
                if job.trace.sampled {
                    let (evaluation, segments) =
                        evaluator.evaluate_segmented(&job.config, &job.features);
                    if !segments.is_empty() {
                        lock_or_recover(&segment_stash).insert(job.id, segments);
                    }
                    evaluation
                } else {
                    evaluator.evaluate(&job.config, &job.features)
                }
            });
        let segment_stash = lock_or_recover(&segment_stash);
        let admitted = outcome.results.len();
        let mut retries = 0u64;
        let mut hedges = 0u64;
        let mut quarantined = 0u64;
        // per admitted job: virtual completion relative to batch start,
        // or the typed error that ended it
        let (job_outcomes, makespan_s) = match &self.chaos {
            Some(chaos) => {
                let evaluations: Vec<Evaluation> = outcome
                    .results
                    .iter()
                    .map(|r| r.evaluation.clone())
                    .collect();
                let poisoned: Vec<bool> = outcome
                    .results
                    .iter()
                    .map(|r| chaos.poisoned_tenants.contains(&r.job.tenant))
                    .collect();
                let (outcomes, stats, makespan) = chaos_schedule(
                    &evaluations,
                    &poisoned,
                    capacity,
                    batch_start_s,
                    chaos,
                    &self.resilience.hedge,
                );
                for s in &stats {
                    retries += u64::from(s.retries);
                    hedges += u64::from(s.hedges);
                }
                let relative: Vec<Result<f64, ServeError>> = outcomes
                    .into_iter()
                    .map(|o| o.map(|t| t - batch_start_s))
                    .collect();
                (relative, makespan)
            }
            None => (
                outcome.results.iter().map(|r| Ok(r.completion_s)).collect(),
                outcome.makespan_s,
            ),
        };
        self.obs.evaluated.add(admitted as u64);
        self.obs.retries.add(retries);
        self.obs.hedges.add(hedges);
        self.obs.makespan.record(makespan_s);
        // scheduler accounting: batch-level, so the 25 ns hot-path
        // budget is untouched. Stolen jobs attribute to their tenant
        // class; per-class makespan is the latest completion among that
        // class's jobs in the pool's (chaos-free) schedule.
        if !outcome.results.is_empty() {
            self.obs.sched_steals.add(outcome.stats.steals);
            self.obs.sched_steal_fails.add(outcome.stats.steal_fails);
            self.obs
                .sched_queue_depth
                .record(outcome.stats.max_queue_depth as f64);
            for &job_id in &outcome.stats.stolen_jobs {
                let class = outcome.results[job_id].job.class;
                self.obs.class_steals[class.index()].inc();
            }
            let mut class_makespan = [f64::NEG_INFINITY; TenantClass::COUNT];
            for result in &outcome.results {
                let slot = &mut class_makespan[result.job.class.index()];
                *slot = slot.max(result.completion_s);
            }
            for (index, &span) in class_makespan.iter().enumerate() {
                if span.is_finite() {
                    self.obs.class_makespan[index].record(span);
                }
            }
        }

        // trace spans record *work content* on virtual time — a probe's
        // compute cost, a lookup's nominal cost — never queue placement,
        // so the retained trace is byte-identical at any worker count
        let batch_span = if requests.is_empty() {
            SpanId::NONE
        } else {
            let total_cost_s: f64 = outcome.results.iter().map(|r| r.evaluation.cost_s).sum();
            let max_arrival_s = requests
                .iter()
                .map(|r| r.arrival_s)
                .fold(batch_start_s, f64::max);
            self.obs.plane.tracer.record(
                "batch",
                None,
                SpanId::NONE,
                batch_start_s,
                max_arrival_s + total_cost_s,
            )
        };
        for result in &outcome.results {
            let eval_span = self.obs.plane.tracer.record(
                "eval",
                Some(result.job.tenant),
                batch_span,
                batch_start_s,
                batch_start_s + result.evaluation.cost_s,
            );
            let ctx = result.job.trace;
            if !ctx.sampled {
                continue;
            }
            // sched layer: where the pool's virtual schedule placed the
            // probe (completion relative to batch start, chaos-free
            // view); value carries the probe's compute cost
            self.obs.plane.trace.record(TraceEvent {
                trace: ctx.id,
                tenant: ctx.tenant,
                layer: Layer::Sched,
                name: "place",
                start_s: batch_start_s,
                end_s: batch_start_s + result.completion_s,
                value: result.evaluation.cost_s,
                span: eval_span,
            });
            // VM layer: the probe's metered sub-segments laid out
            // sequentially on virtual time; value carries each
            // segment's metered joules
            if let Some(segments) = segment_stash.get(&result.job.id) {
                let mut seg_start_s = batch_start_s;
                for segment in segments {
                    self.obs.plane.trace.record(TraceEvent {
                        trace: ctx.id,
                        tenant: ctx.tenant,
                        layer: Layer::Vm,
                        name: segment.name,
                        start_s: seg_start_s,
                        end_s: seg_start_s + segment.cost_s,
                        value: segment.energy_j,
                        span: eval_span,
                    });
                    seg_start_s += segment.cost_s;
                }
            }
        }

        // verified results are memoized; failed design points are
        // quarantined so coalesced waiters re-probe next time instead
        // of being served a poisoned entry
        for (result, job_outcome) in outcome.results.iter().zip(&job_outcomes) {
            let key = DesignKey::new(&result.job.config, &result.job.features);
            match job_outcome {
                Ok(_) => {
                    self.journal_append(|| JournalEntry::CacheInsert {
                        key: key.clone(),
                        metrics: result.evaluation.metrics.clone(),
                    });
                    self.cache.insert(key, result.evaluation.metrics.clone());
                }
                Err(_) => {
                    self.cache.quarantine(&key);
                    quarantined += 1;
                    self.journal_append(|| JournalEntry::Quarantine { key });
                }
            }
        }

        // 3. answer requests in order, feeding measurements back
        let mut responses: Vec<Result<TuningResponse, ServeError>> =
            Vec::with_capacity(requests.len());
        let mut shed = 0;
        let mut touched: Vec<TenantId> = Vec::new();
        let mut batch_end_s = f64::NEG_INFINITY;
        // per-tenant (checked, violations) the front door consumes at
        // the batch end; every request's tenant gets an entry so a
        // quiet (fully shed) tenant still decays toward readmission
        let mut slo_tally: BTreeMap<TenantId, (u64, u64)> = BTreeMap::new();
        let front_door_on = self.front_door.is_some();
        // energy attribution: one row per *served* response, carrying
        // its direct metered nanojoules (probe energy for fresh
        // evaluations, nominal lookup energy for cache answers). The
        // overhead split and the ledger window close after the loop.
        struct ServedRow {
            index: usize,
            tenant: TenantId,
            class: TenantClass,
            ctx: TraceCtx,
            arrival_s: f64,
            direct_nj: u64,
        }
        let lookup_nj = to_nj(self.energy.cache_lookup_w * CACHE_LOOKUP_S);
        let mut served_rows: Vec<ServedRow> = Vec::new();
        let mut cache_lookups = 0u64;
        for (index, (request, entry)) in requests.iter().zip(pending).enumerate() {
            batch_end_s = batch_end_s.max(request.arrival_s);
            if front_door_on {
                slo_tally.entry(request.tenant).or_default();
            }
            // `work_s` is the request's worker-invariant span width: the
            // probe's compute cost for a fresh evaluation, the nominal
            // lookup cost for cache answers, zero for errors
            let (response, work_s, direct_nj) = match entry {
                Pending::Err(e) => (Err(e), 0.0, 0u64),
                Pending::Hit(config, metrics) => (
                    Ok(TuningResponse {
                        tenant: request.tenant,
                        arrival_s: request.arrival_s,
                        config,
                        metrics,
                        latency_s: CACHE_LOOKUP_S,
                        cache_hit: true,
                        energy_j: 0.0,
                    }),
                    CACHE_LOOKUP_S,
                    lookup_nj,
                ),
                Pending::Job {
                    config,
                    job_id,
                    coalesced,
                } => {
                    if job_id < admitted {
                        match &job_outcomes[job_id] {
                            Ok(completion_s) => {
                                if coalesced {
                                    self.cache.note_coalesced_hit();
                                }
                                (
                                    Ok(TuningResponse {
                                        tenant: request.tenant,
                                        arrival_s: request.arrival_s,
                                        config,
                                        metrics: outcome.results[job_id].evaluation.metrics.clone(),
                                        latency_s: *completion_s,
                                        cache_hit: coalesced,
                                        energy_j: 0.0,
                                    }),
                                    if coalesced {
                                        CACHE_LOOKUP_S
                                    } else {
                                        outcome.results[job_id].evaluation.cost_s
                                    },
                                    if coalesced {
                                        lookup_nj
                                    } else {
                                        to_nj(outcome.results[job_id].evaluation.energy_j)
                                    },
                                )
                            }
                            // coalesced waiters share their job's fate
                            Err(e) => (Err(e.clone()), 0.0, 0),
                        }
                    } else {
                        (
                            Err(ServeError::Shed {
                                capacity: self.pool.config().queue_capacity,
                            }),
                            0.0,
                            0,
                        )
                    }
                }
            };
            let request_span = self.obs.plane.tracer.record(
                "request",
                Some(request.tenant),
                batch_span,
                request.arrival_s,
                request.arrival_s + work_s,
            );
            match &response {
                Ok(answer) => {
                    let metrics = &answer.metrics;
                    let config = &answer.config;
                    let arrival = answer.arrival_s;
                    self.obs.served.inc();
                    if answer.cache_hit {
                        self.obs.cache_hit_responses.inc();
                        cache_lookups += 1;
                    }
                    let (ctx, class) = req_meta[index];
                    served_rows.push(ServedRow {
                        index,
                        tenant: request.tenant,
                        class,
                        ctx,
                        arrival_s: arrival,
                        direct_nj,
                    });
                    self.obs.learns.add(metrics.len() as u64);
                    self.obs.latency.record(answer.latency_s);
                    let slo_met =
                        self.obs
                            .check_latency_slo(request.tenant, arrival, answer.latency_s);
                    if front_door_on {
                        let tally = slo_tally.entry(request.tenant).or_default();
                        tally.0 += 1;
                        tally.1 += u64::from(!slo_met);
                    }
                    let select_end_s = arrival + SELECT_SPAN_S;
                    self.obs.plane.tracer.record(
                        "select",
                        Some(request.tenant),
                        request_span,
                        arrival,
                        select_end_s,
                    );
                    self.obs.plane.tracer.record(
                        "cache_probe",
                        Some(request.tenant),
                        request_span,
                        select_end_s,
                        select_end_s + CACHE_PROBE_SPAN_S,
                    );
                    self.obs.plane.tracer.record(
                        "learn",
                        Some(request.tenant),
                        request_span,
                        arrival + work_s,
                        arrival + work_s + LEARN_SPAN_S,
                    );
                    let _ = self.store.with(request.tenant, |session| {
                        session.requests += 1;
                        if session.last_config.as_ref() != Some(config) {
                            session.last_config = Some(config.clone());
                        }
                        session.power_demand_w = metrics.get("power").copied().unwrap_or(0.0);
                        for (metric, value) in metrics {
                            session.manager.observe(arrival, metric, *value);
                        }
                    });
                    if breaker_on {
                        self.breakers
                            .with(request.tenant, |b| b.on_success(arrival));
                    }
                    self.journal_append(|| JournalEntry::Learn {
                        tenant: request.tenant,
                        time_s: arrival,
                        config: config.clone(),
                        metrics: metrics.clone(),
                    });
                    if !touched.contains(&request.tenant) {
                        touched.push(request.tenant);
                    }
                }
                Err(e) => {
                    if matches!(e, ServeError::Shed { .. }) {
                        shed += 1;
                    }
                    // classification mirrors the drive loop's: shed is
                    // load (queue overflow or deliberate backpressure),
                    // infrastructure faults are failures, tenant
                    // contract errors are rejections
                    match e {
                        ServeError::Shed { .. } | ServeError::AdmissionRejected { .. } => {
                            self.obs.shed.inc()
                        }
                        ServeError::WorkerFailed { .. }
                        | ServeError::Deadline
                        | ServeError::CircuitOpen { .. } => self.obs.failed.inc(),
                        _ => self.obs.rejected.inc(),
                    }
                    if front_door_on {
                        // feedback: an infrastructure failure burns the
                        // tenant's budget (the service answered badly),
                        // and unmet probe demand counts too — a queue
                        // overflow on an admitted tenant, or a degraded
                        // tenant's rejected cache miss. That is what
                        // escalates an abuser to the shed tier: a
                        // flooding tenant burns even while its probes
                        // only ever overflow the queue, while a tenant
                        // mostly served from cache dilutes the odd
                        // overflow below the degrade threshold. A hard
                        // shed contributes nothing, so a backed-off
                        // tenant decays home.
                        let burned = match &e {
                            ServeError::WorkerFailed { .. }
                            | ServeError::Deadline
                            | ServeError::Shed { .. } => true,
                            ServeError::AdmissionRejected { .. } => {
                                self.front_door.as_ref().is_some_and(|fd| {
                                    fd.admission.tier(request.tenant) == AdmissionTier::Degrade
                                })
                            }
                            _ => false,
                        };
                        if burned {
                            let tally = slo_tally.entry(request.tenant).or_default();
                            tally.0 += 1;
                            tally.1 += 1;
                        }
                    }
                    // worker faults and missed deadlines say the eval
                    // path is unhealthy for this tenant; shed, open
                    // circuits, and contract errors do not
                    let feedback = breaker_on
                        && matches!(e, ServeError::WorkerFailed { .. } | ServeError::Deadline);
                    if feedback {
                        self.breakers
                            .with(request.tenant, |b| b.on_failure(request.arrival_s));
                    }
                    let known = self
                        .store
                        .with(request.tenant, |session| {
                            session.rejected += 1;
                        })
                        .is_ok();
                    if known {
                        self.journal_append(|| JournalEntry::Reject {
                            tenant: request.tenant,
                            time_s: request.arrival_s,
                            breaker_feedback: feedback,
                        });
                    }
                }
            }
            responses.push(response);
        }

        // 3b. close the batch's energy window. All bookkeeping is in
        // integer nanojoules with exactly one rounding per meter
        // reading, so Σ attributed + idle ≡ the facility meter to the
        // last bit (the ledger re-checks the invariant per window).
        if !requests.is_empty() {
            // direct metered energy: every probe the pool ran (served
            // or not) plus one nominal lookup per cache-hit answer
            let spent_eval_nj: u64 = outcome
                .results
                .iter()
                .map(|r| to_nj(r.evaluation.energy_j))
                .sum();
            let direct_nj = spent_eval_nj + lookup_nj * cache_lookups;
            // node static power burns over busy *work content* — never
            // the worker-dependent makespan — keeping the window
            // byte-identical at any physical or virtual worker count
            let busy_s: f64 = outcome
                .results
                .iter()
                .map(|r| r.evaluation.cost_s)
                .sum::<f64>()
                + cache_lookups as f64 * CACHE_LOOKUP_S;
            let static_nj = to_nj(self.energy.node_static_w * busy_s);
            let it_nj = direct_nj + static_nj;
            let cooling_nj = to_nj(self.energy.cooling_overhead * nj_to_j(it_nj as u128));
            let facility_nj = it_nj + cooling_nj;
            let overhead_nj = static_nj + cooling_nj;
            // overhead splits across served requests proportionally to
            // their direct demand (largest remainder, so shares sum
            // exactly); failed probes' direct energy stays unattributed
            let weights: Vec<u64> = served_rows.iter().map(|r| r.direct_nj).collect();
            let shares = largest_remainder_split(overhead_nj, &weights);
            let mut attributed_nj = 0u64;
            let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
            for (row, &share) in served_rows.iter().zip(&shares) {
                let request_nj = row.direct_nj + share;
                attributed_nj += request_nj;
                *per_tenant.entry(row.tenant).or_default() += request_nj;
                let energy_j = nj_to_j(request_nj as u128);
                if let Ok(answer) = &mut responses[row.index] {
                    answer.energy_j = energy_j;
                }
                self.obs.class_energy[row.class.index()].record(energy_j);
                // observed-only SLO: burn accrues under the `energy`
                // objective but no admission tier acts on it yet
                let _ = self
                    .obs
                    .check_energy_slo(row.tenant, row.arrival_s, energy_j);
                if row.ctx.sampled {
                    self.obs.plane.trace.record(TraceEvent {
                        trace: row.ctx.id,
                        tenant: row.ctx.tenant,
                        layer: Layer::Serve,
                        name: "energy",
                        start_s: row.arrival_s,
                        end_s: row.arrival_s,
                        value: energy_j,
                        span: SpanId::NONE,
                    });
                }
            }
            let idle_nj = facility_nj - attributed_nj;
            self.obs.energy_facility_nj.add(facility_nj);
            self.obs.energy_attributed_nj.add(attributed_nj);
            self.obs.energy_idle_nj.add(idle_nj);
            self.obs.energy_windows.inc();
            let per_tenant_rows: Vec<(TenantId, u64)> = per_tenant.into_iter().collect();
            self.obs.plane.energy.record_window(
                WindowSummary {
                    index: batch_ordinal,
                    requests: served_rows.len() as u64,
                    direct_nj,
                    overhead_nj,
                    facility_nj,
                    attributed_nj,
                    idle_nj,
                },
                &per_tenant_rows,
            );
        }

        // 4. one adaptation round per touched tenant, sorted order
        touched.sort_unstable();
        for tenant in touched {
            let _ = self.store.with(tenant, |session| {
                session.manager.adapt(batch_end_s);
            });
            self.obs.adapts.inc();
            self.obs.plane.tracer.record(
                "adapt",
                Some(tenant),
                batch_span,
                batch_end_s,
                batch_end_s + ADAPT_SPAN_S,
            );
            self.journal_append(|| JournalEntry::Adapt {
                tenant,
                now_s: batch_end_s,
            });
        }

        // feed the batch's SLO outcomes to the admission controller:
        // one EWMA window per tenant at the batch end, journaled so
        // replay reproduces every tier transition bit-identically
        if let Some(fd) = &self.front_door {
            if batch_end_s.is_finite() {
                for (&tenant, &(checked, violations)) in &slo_tally {
                    if fd
                        .admission
                        .update(tenant, batch_end_s, checked, violations)
                        .is_some()
                    {
                        self.obs.admission_transitions.inc();
                    }
                    self.journal_append(|| JournalEntry::AdmissionUpdate {
                        tenant,
                        time_s: batch_end_s,
                        checked,
                        violations,
                    });
                }
            }
        }

        // 5. Daly-informed snapshot cadence: checkpoint the full state
        // and compact the journal once the interval has elapsed. The
        // snapshot shares every session with the store; the store
        // copies a session when a later request first writes to it
        if let Some(journal) = &self.journal {
            if batch_end_s.is_finite() {
                let mut due = lock_or_recover(&self.next_snapshot_s);
                if batch_end_s >= *due {
                    let snap = take_snapshot(
                        batch_end_s,
                        journal,
                        &self.store,
                        &self.cache,
                        &self.breakers,
                        self.front_door
                            .as_ref()
                            .map(|fd| (&fd.admission, &fd.autoscaler)),
                    );
                    journal.compact(snap.through_seq);
                    *lock_or_recover(&self.snapshot) = Some(snap);
                    let interval = self.resilience.snapshot_interval_s();
                    while *due <= batch_end_s {
                        *due += interval;
                    }
                }
            }
        }

        BatchReport {
            responses,
            makespan_s,
            evaluated: admitted,
            shed,
            degraded,
            admission_shed,
            capacity,
            retries,
            hedges,
            quarantined,
        }
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
        let shares = try_weighted_split_observed(budget_w, &demands, &self.obs.powercap)?;
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

/// Locks a mutex, recovering the guarded data from a poisoned lock —
/// a panic under another holder leaves these states structurally sound.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(service.store().with(7, |s| s.rejected).unwrap(), 1);
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
        assert!(service.cache().is_empty(), "corrupt results never memoize");

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
        assert_eq!(service.store().with(9, |s| s.rejected).unwrap(), 4);
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
        let hint = report.responses[0].as_ref().unwrap_err().retry_after_ms();
        assert!(hint.is_some_and(|ms| ms >= 5000), "hint {hint:?}");

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
        let rejected_before = service.store().with(9, |s| s.rejected).unwrap();

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
            service.store().with(9, |s| s.rejected).unwrap(),
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
    fn crash_recovery_restores_front_door_state_bit_identically() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let front_door = FrontDoorConfig::hardened();
        let build = || {
            let service = TuningService::with_resilience(config, resilience, Probe)
                .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(2))
                .with_front_door(front_door);
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, factory(tenant), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
            service
        };
        // tenant 2 is poisoned: its windows burn, driving admission
        // tier transitions; 26 distinct-feature probes per window would
        // push the autoscaler as well via the shared cache misses
        let batch_at = |t0: f64| -> Vec<TuningRequest> {
            (0..4u64)
                .map(|tenant| TuningRequest {
                    tenant,
                    arrival_s: t0 + 0.5 * tenant as f64,
                })
                .collect()
        };
        let windows = [0.0, 6.0, 20.0, 30.0, 36.0];

        let reference = build();
        for &t0 in &windows {
            reference.serve_batch(&batch_at(t0));
        }
        let reference_report = reference.state_report();
        assert!(
            reference_report.contains("admission 2:"),
            "poisoned tenant must have admission state:\n{reference_report}"
        );
        assert!(reference_report.contains("autoscaler: capacity="));

        let victim = build();
        for &t0 in &windows[..4] {
            victim.serve_batch(&batch_at(t0));
        }
        let (snapshot, entries) = victim.crash();
        assert!(snapshot.is_some(), "Daly cadence must have snapshotted");
        let recovered = TuningService::recover(
            config,
            resilience,
            Some(ChaosConfig::new(quiet_schedule(4)).poison(2)),
            Some(front_door),
            Probe,
            snapshot,
            &entries,
            &factory,
        );
        recovered.serve_batch(&batch_at(windows[4]));
        assert_eq!(
            recovered.state_report(),
            reference_report,
            "front-door state must recover exactly"
        );
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
        assert_eq!(recovered.store().with(3, |s| s.requests).unwrap(), 2);
    }
}
