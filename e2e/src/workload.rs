//! The benchmark's workloads.
//!
//! Every serve workload is rebuilt from `antarex-serve`'s public API so
//! that the benchmark can time each `serve_batch` call and wrap the
//! evaluator it hands to the service. `--seed` drives input generation
//! only (arrivals, tenant features, road network, fault schedules); the
//! service receives the generated inputs.

use crate::timed::{ProbeTap, Timed};
use antarex_bench::cluster_exp::ClusterScale;
use antarex_serve::chaos::ChaosConfig;
use antarex_serve::docking::{register_docking_tenants, TenantMux};
use antarex_serve::driver::{self, BurstProfile, DriverConfig};
use antarex_serve::kernel::{kernel_manager, KernelEvaluator};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::pool::PoolConfig;
use antarex_serve::store::{TenantClass, TenantId};
use antarex_serve::{
    AdmissionConfig, AutoscaleConfig, Evaluator, FrontDoorConfig, ResilienceConfig, SchedConfig,
    ServiceConfig, TuningRequest, TuningService,
};
use antarex_sim::faults::{FaultConfig, FaultSchedule};
use antarex_tuner::manager::AppManager;
use antarex_vm::InstrumentedCodeCache;
use std::ops::Range;
use std::sync::Arc;

/// Sizes of a run: the measured ones, or sub-second ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number is taken at.
    Full,
    /// Sub-second sizes that still reach every code path.
    Tiny,
}

/// A workload's name and the reason it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen: the layers it stresses and those it bypasses.
    pub why: &'static str,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "serve_steady_mix",
        why: "nav+docking tenants at a 0.995 cache hit rate: per-request orchestration (store, select, cache, admission, obs) is the wall; evaluator and VM idle",
    },
    WorkloadInfo {
        name: "serve_kernel_cold",
        why: "4,000 precision tenants with unshared design points: probes (parse, lower, VM run) and pool scheduling are the wall; orchestration is the small share",
    },
    WorkloadInfo {
        name: "serve_overload_chaos",
        why: "10,400 sessions under bursty overload with journal, chaos, breakers and the front door on: admission runs its shed and degrade paths, the journal is written and then replayed",
    },
    WorkloadInfo {
        name: "rtrm_cluster_storm",
        why: "4,096-node RTRM control loop under a fault storm and heat wave: no serve code runs, so it is the control for serve-side changes and the guard for rtrm and sim",
    },
];

/// One serve campaign, built and ready for its first `serve_batch`.
pub struct Campaign<E> {
    /// The service, tenants registered.
    pub service: TuningService<Timed<E>>,
    /// Every request of the campaign in arrival order.
    pub requests: Vec<TuningRequest>,
    /// The batches, as ranges of `requests`.
    pub batches: Vec<Range<usize>>,
    /// The fault environment the service was built with (recovery needs it).
    pub chaos: Option<ChaosConfig>,
    /// The front door the service was built with (recovery needs it).
    pub front_door: Option<FrontDoorConfig>,
    /// The scheduler policies the service's pool replays probes with.
    pub sched: SchedConfig,
    /// The evaluator's instrumented-code cache, when it probes on the VM.
    pub code_cache: Option<Arc<InstrumentedCodeCache>>,
}

impl<E> Campaign<E> {
    /// The requests of batch `index`.
    pub fn batch(&self, index: usize) -> &[TuningRequest] {
        &self.requests[self.batches[index].clone()]
    }
}

/// A serve workload: how to build its evaluator and its campaign.
pub trait ServeSpec {
    /// The production evaluator the workload probes with.
    type Eval: Evaluator;

    /// Builds the evaluator (road network, pocket, kernel) from `seed`.
    fn evaluator(&self, seed: u64) -> Self::Eval;

    /// The registration-time manager of `tenant` — the deterministic
    /// factory `TuningService::recover` asks for.
    fn manager(&self, tenant: TenantId) -> AppManager;

    /// Builds the service, registers every tenant and generates the
    /// arrivals; `tap` is present on traced passes only.
    fn build(&self, seed: u64, workers: usize, tap: Option<Arc<ProbeTap>>) -> Campaign<Self::Eval>;
}

fn pool(workers: usize, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        pool: PoolConfig {
            workers,
            queue_capacity,
        },
        ..ServiceConfig::default()
    }
}

fn sort_arrivals(requests: &mut [TuningRequest]) {
    requests.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then(a.tenant.cmp(&b.tenant))
    });
}

fn fixed_batches(requests: usize, batch: usize) -> Vec<Range<usize>> {
    (0..requests)
        .step_by(batch)
        .map(|start| start..(start + batch).min(requests))
        .collect()
}

/// Chunks arrivals into the non-empty `window_s` windows they fall in.
fn window_batches(requests: &[TuningRequest], window_s: f64) -> Vec<Range<usize>> {
    let mut batches = Vec::new();
    let mut start = 0;
    while start < requests.len() {
        let window_end = ((requests[start].arrival_s / window_s).floor() + 1.0) * window_s;
        let end = requests[start..]
            .iter()
            .position(|request| request.arrival_s >= window_end)
            .map_or(requests.len(), |offset| start + offset);
        // `floor` may round an arrival on a window edge into the window
        // before it: never emit an empty batch
        let end = end.max(start + 1);
        batches.push(start..end);
        start = end;
    }
    batches
}

// ---------------------------------------------------------------------------
// serve_steady_mix
// ---------------------------------------------------------------------------

/// First docking tenant id — nav tenants occupy `0..nav_tenants`.
const DOCKING_BASE: TenantId = 1000;

/// The e1 nav+docking campaign: cache-friendly archetypes behind the
/// hardened front door pinned to four virtual workers.
#[derive(Debug, Clone, Copy)]
pub struct SteadyMix {
    nav_tenants: usize,
    docking_tenants: usize,
    archetypes: usize,
    duration_s: f64,
    batch: usize,
}

impl SteadyMix {
    /// The workload at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => SteadyMix {
                nav_tenants: 192,
                docking_tenants: 64,
                archetypes: 6,
                duration_s: 3200.0,
                batch: 64,
            },
            Scale::Tiny => SteadyMix {
                nav_tenants: 6,
                docking_tenants: 2,
                archetypes: 3,
                duration_s: 40.0,
                batch: 16,
            },
        }
    }
}

impl ServeSpec for SteadyMix {
    type Eval = TenantMux;

    fn evaluator(&self, seed: u64) -> TenantMux {
        TenantMux::city_and_screening(seed)
    }

    fn manager(&self, tenant: TenantId) -> AppManager {
        if tenant >= DOCKING_BASE {
            antarex_serve::docking::docking_manager(0.5)
        } else {
            driver::nav_manager(0.5)
        }
    }

    fn build(&self, seed: u64, workers: usize, tap: Option<Arc<ProbeTap>>) -> Campaign<TenantMux> {
        let front_door = FrontDoorConfig {
            admission: AdmissionConfig::hardened(),
            autoscale: AutoscaleConfig {
                min_workers: 4,
                max_workers: 4,
                ..AutoscaleConfig::hardened()
            },
        };
        let sched = SchedConfig::work_stealing();
        let service = TuningService::new(
            pool(workers, ServiceConfig::default().pool.queue_capacity),
            Timed::new(self.evaluator(seed), tap),
        )
        .with_scheduler(sched)
        .with_front_door(front_door);
        for tenant in 0..self.nav_tenants {
            let features = driver::archetype_features(tenant % self.archetypes);
            service
                .register_tenant_classed(
                    tenant as TenantId,
                    TenantClass::Nav,
                    driver::nav_manager(0.5),
                    features,
                )
                .expect("nav tenant ids are distinct");
        }
        register_docking_tenants(&service, DOCKING_BASE, self.docking_tenants, seed, 0.5);

        let nav = DriverConfig {
            tenants: self.nav_tenants,
            archetypes: self.archetypes,
            duration_s: self.duration_s,
            rate_per_tenant_hz: 0.5,
            batch_window_s: 1.0,
            seed,
        };
        let docking = DriverConfig {
            tenants: self.docking_tenants,
            seed: seed.wrapping_add(1),
            ..nav
        };
        let mut requests = driver::arrivals(&nav);
        requests.extend(driver::arrivals(&docking).into_iter().map(|mut request| {
            request.tenant += DOCKING_BASE;
            request
        }));
        sort_arrivals(&mut requests);
        let batches = fixed_batches(requests.len(), self.batch);
        Campaign {
            service,
            requests,
            batches,
            chaos: None,
            front_door: Some(front_door),
            sched,
            code_cache: None,
        }
    }
}

// ---------------------------------------------------------------------------
// serve_kernel_cold
// ---------------------------------------------------------------------------

/// Precision tenants whose problem sizes differ, so design points are
/// not shared and most first requests probe the metered VM.
#[derive(Debug, Clone, Copy)]
pub struct KernelCold {
    tenants: usize,
    duration_s: f64,
    batch: usize,
}

impl KernelCold {
    /// The workload at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => KernelCold {
                tenants: 4000,
                duration_s: 60.0,
                batch: 64,
            },
            Scale::Tiny => KernelCold {
                tenants: 60,
                duration_s: 40.0,
                batch: 16,
            },
        }
    }
}

impl ServeSpec for KernelCold {
    type Eval = KernelEvaluator;

    fn evaluator(&self, _seed: u64) -> KernelEvaluator {
        KernelEvaluator::fma()
    }

    fn manager(&self, _tenant: TenantId) -> AppManager {
        kernel_manager(1e-3)
    }

    fn build(
        &self,
        seed: u64,
        workers: usize,
        tap: Option<Arc<ProbeTap>>,
    ) -> Campaign<KernelEvaluator> {
        let evaluator = self.evaluator(seed);
        let code_cache = Arc::clone(evaluator.cache());
        let service = TuningService::new(
            pool(workers, ServiceConfig::default().pool.queue_capacity),
            Timed::new(evaluator, tap),
        );
        for tenant in 0..self.tenants as TenantId {
            let problem_size = 64 + tenant * 7919 % 4096;
            service
                .register_tenant(tenant, self.manager(tenant), vec![problem_size as f64])
                .expect("kernel tenant ids are distinct");
        }
        let requests = driver::arrivals(&DriverConfig {
            tenants: self.tenants,
            archetypes: 1,
            duration_s: self.duration_s,
            rate_per_tenant_hz: 0.05,
            batch_window_s: 1.0,
            seed,
        });
        let batches = fixed_batches(requests.len(), self.batch);
        Campaign {
            service,
            requests,
            batches,
            chaos: None,
            front_door: None,
            sched: SchedConfig::default(),
            code_cache: Some(code_cache),
        }
    }
}

// ---------------------------------------------------------------------------
// serve_overload_chaos
// ---------------------------------------------------------------------------

/// The ad1 "controlled" profile: well-behaved tenants sharing the pool
/// with bursty aggressors whose probes always fail integrity, behind
/// the hardened front door, journaled.
#[derive(Debug, Clone, Copy)]
pub struct OverloadChaos {
    wb_tenants: usize,
    aggressive_tenants: usize,
    archetypes: usize,
    fresh_every: usize,
    duration_s: f64,
    wb_rate_hz: f64,
    aggressive_rate_hz: f64,
    queue_capacity: usize,
}

/// Batch window of the overload campaign, seconds.
const OVERLOAD_WINDOW_S: f64 = 5.0;

impl OverloadChaos {
    /// The workload at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => OverloadChaos {
                wb_tenants: 10_000,
                aggressive_tenants: 400,
                archetypes: 100,
                fresh_every: 5,
                duration_s: 600.0,
                wb_rate_hz: 0.005,
                aggressive_rate_hz: 0.1,
                queue_capacity: 96,
            },
            Scale::Tiny => OverloadChaos {
                wb_tenants: 64,
                aggressive_tenants: 16,
                archetypes: 16,
                fresh_every: 4,
                duration_s: 60.0,
                wb_rate_hz: 0.05,
                aggressive_rate_hz: 0.2,
                queue_capacity: 24,
            },
        }
    }

    fn aggressive_base(&self) -> TenantId {
        self.wb_tenants as TenantId
    }
}

impl ServeSpec for OverloadChaos {
    type Eval = NavEvaluator;

    /// The city network with a planner calibration eight times faster
    /// than the navigation default (one probe ≈ 0.15 virtual seconds),
    /// the regime where the 0.5 s SLO is meetable whenever capacity
    /// matches demand.
    fn evaluator(&self, seed: u64) -> NavEvaluator {
        let mut evaluator = NavEvaluator::city(seed);
        evaluator.expansions_per_s *= 8.0;
        evaluator
    }

    fn manager(&self, _tenant: TenantId) -> AppManager {
        driver::nav_manager(0.5)
    }

    fn build(
        &self,
        seed: u64,
        workers: usize,
        tap: Option<Arc<ProbeTap>>,
    ) -> Campaign<NavEvaluator> {
        // no infrastructure faults (the overload is the adversary);
        // every aggressive tenant's probes are poisoned, so each burns
        // pool time and quarantines instead of caching
        let schedule = FaultSchedule::generate(&FaultConfig::none(seed), 8, self.duration_s + 60.0);
        let base = self.aggressive_base();
        let chaos = (0..self.aggressive_tenants as TenantId)
            .fold(ChaosConfig::new(schedule), |chaos, t| {
                chaos.poison(base + t)
            });
        let front_door = FrontDoorConfig::hardened();
        let service = TuningService::with_resilience(
            pool(workers, self.queue_capacity),
            ResilienceConfig::hardened(),
            Timed::new(self.evaluator(seed), tap),
        )
        .with_chaos(chaos.clone())
        .with_front_door(front_door);
        // well-behaved tenants share archetypes except the fresh slice,
        // whose unique features keep legitimate probe demand flowing;
        // aggressors get features past both ranges
        for t in 0..self.wb_tenants {
            let fresh = t % self.fresh_every == self.fresh_every - 1;
            let archetype = if fresh {
                self.archetypes + t
            } else {
                t % self.archetypes
            };
            service
                .register_tenant(
                    t as TenantId,
                    self.manager(t as TenantId),
                    driver::archetype_features(archetype),
                )
                .expect("well-behaved tenant ids are distinct");
        }
        for t in 0..self.aggressive_tenants {
            let tenant = base + t as TenantId;
            service
                .register_tenant(
                    tenant,
                    self.manager(tenant),
                    driver::archetype_features(self.archetypes + self.wb_tenants + t),
                )
                .expect("aggressive tenant ids are distinct");
        }

        let wb = DriverConfig {
            tenants: self.wb_tenants,
            archetypes: self.archetypes,
            duration_s: self.duration_s,
            rate_per_tenant_hz: self.wb_rate_hz,
            batch_window_s: OVERLOAD_WINDOW_S,
            seed,
        };
        let aggressive = DriverConfig {
            tenants: self.aggressive_tenants,
            rate_per_tenant_hz: self.aggressive_rate_hz,
            ..wb
        };
        let mut requests = driver::arrivals(&wb);
        requests.extend(
            driver::bursty_arrivals(&aggressive, &BurstProfile::aggressive())
                .into_iter()
                .map(|mut request| {
                    request.tenant += base;
                    request
                }),
        );
        sort_arrivals(&mut requests);
        let batches = window_batches(&requests, OVERLOAD_WINDOW_S);
        Campaign {
            service,
            requests,
            batches,
            chaos: Some(chaos),
            front_door: Some(front_door),
            sched: SchedConfig::default(),
            code_cache: None,
        }
    }
}

// ---------------------------------------------------------------------------
// rtrm_cluster_storm
// ---------------------------------------------------------------------------

/// The cluster the RTRM campaign controls at `scale`.
pub fn cluster_scale(scale: Scale) -> ClusterScale {
    match scale {
        Scale::Full => ClusterScale::full(),
        Scale::Tiny => ClusterScale::tiny(),
    }
}
