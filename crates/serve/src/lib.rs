//! # antarex-serve — autotuning as a service
//!
//! The ANTAREX runtime (Silvano et al., DATE 2016) frames the autotuner
//! as a facility shared by many application instances, sitting between
//! app-level adaptation and cluster-level power management. This crate
//! is that coordination point, scaled for heavy multi-tenant traffic:
//!
//! * [`store`] — the **sharded session store**: one
//!   [`AppManager`](antarex_tuner::AppManager) per tenant behind
//!   hash-sharded locks, so session lookups from many serving threads
//!   contend only per shard;
//! * [`cache`] — the **memoized design-point cache** keyed by (knob
//!   configuration, quantized workload features), with lock-free
//!   hit/miss accounting: identical configurations are never measured
//!   twice, even across tenants;
//! * [`pool`] — the **parallel evaluation pool**: worker threads kept
//!   for the pool's life over a bounded, load-shedding queue, with results merged
//!   in job order and timing replayed on *virtual* cores so outputs
//!   are byte-identical at any physical core count;
//! * [`service`] — the tying layer: select → cache → probe → learn →
//!   adapt per batch, plus the aggregate power demand the RTRM's
//!   facility capper splits across tenants;
//! * [`chaos`] — **fault injection**: each batch re-placed by
//!   `antarex_sim::sched`'s list placement against a deterministic
//!   [`FaultSchedule`](antarex_sim::faults::FaultSchedule) — worker
//!   crashes retried with capped backoff, stragglers hedged, results
//!   integrity-checked, per-job deadline budgets enforced;
//! * [`breaker`] — **per-tenant circuit breakers** so a tenant whose
//!   probes keep failing fails fast instead of consuming pool capacity;
//! * [`journal`] — **crash-recoverable sessions**: a write-ahead
//!   journal of state deltas plus Daly-cadenced snapshots, with replay
//!   proven bit-identical to the uninterrupted run;
//! * [`obs`] — the **observability plane**: every serving-path counter,
//!   histogram, span, and SLO burn check flows through one
//!   [`ObsPlane`](antarex_obs::ObsPlane), with traces recorded on
//!   virtual work content so they are byte-identical at any worker
//!   count;
//! * [`driver`] — **a campaign as a value**: tenants, seeded
//!   per-tenant arrivals, the optional subsystems and the batching in
//!   one description that builds, drives, crashes and recovers the
//!   service on virtual time;
//! * [`nav`] — the navigation use case wired through the service as a
//!   real evaluator;
//! * [`docking`] — the drug-discovery use case as a second **tenant
//!   class**: probes dock real synthetic ligands with heavy-tailed
//!   `atoms × spheres × poses` costs, and the pool's deterministic
//!   **work-stealing scheduler**
//!   ([`pool::SchedPolicy`]) rebalances the resulting
//!   imbalance without giving up byte-identical schedules at any
//!   physical worker count;
//! * [`kernel`] — mini-C precision design points probed on the metered
//!   bytecode VM, with instrumented code shared across tenants through
//!   one [`InstrumentedCodeCache`](antarex_vm::InstrumentedCodeCache).
//!
//! # Examples
//!
//! ```
//! use antarex_serve::driver::DriverConfig;
//! use antarex_serve::nav::NavEvaluator;
//!
//! let campaign = DriverConfig::smoke(1).campaign();
//! let (_service, stats) = campaign.run(NavEvaluator::city(1));
//! assert!(stats.served > 0);
//! assert_eq!(
//!     stats.served + stats.shed + stats.rejected + stats.failed,
//!     stats.requests
//! );
//! ```

pub(crate) mod admission;
pub(crate) mod autoscale;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod docking;
pub mod driver;
pub(crate) mod error;
pub mod journal;
pub mod kernel;
pub mod nav;
pub mod obs;
pub mod pool;
pub mod service;
pub mod store;

pub use admission::{AdmissionConfig, AdmissionController};
pub use autoscale::{AutoscaleConfig, Autoscaler};
pub use breaker::BreakerBank;
pub use cache::{probe_seed, DesignKey, DesignPointCache, ReferenceKey};
pub use error::ServeError;
pub use journal::{Journal, JournalEntry, Snapshot};
pub use pool::{EvalPool, SchedConfig, SchedPolicy};
pub use service::{
    BatchReport, Evaluator, FrontDoorConfig, ProbeSegment, ResilienceConfig, ServiceConfig,
    TuningRequest, TuningService,
};
pub use store::{Selection, SessionStore};

/// Locks a mutex, recovering the guarded data from a poisoned lock — the
/// crate's one poisoned-lock policy: a panic under another holder
/// leaves the guarded maps and vectors structurally sound, so serving
/// goes on.
pub(crate) fn lock_or_recover<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Working memory of finished probes, kept for the next ones. A probe
/// takes an entry, or starts an empty one, and gives it back when done,
/// so the list never holds more entries than there were threads probing
/// at once. A clone of the list (and of the evaluator holding it)
/// starts empty: memory is never shared.
pub(crate) struct FreeList<T>(std::sync::Mutex<Vec<T>>);

impl<T: Default> FreeList<T> {
    pub(crate) fn take(&self) -> T {
        lock_or_recover(&self.0).pop().unwrap_or_default()
    }

    pub(crate) fn give_back(&self, scratch: T) {
        lock_or_recover(&self.0).push(scratch);
    }
}

impl<T> Default for FreeList<T> {
    fn default() -> Self {
        FreeList(std::sync::Mutex::new(Vec::new()))
    }
}

impl<T> Clone for FreeList<T> {
    fn clone(&self) -> Self {
        FreeList::default()
    }
}

impl<T> std::fmt::Debug for FreeList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeList").finish_non_exhaustive()
    }
}
