//! The parallel evaluation pool.
//!
//! Batches of design-point probes run on worker threads pulling from a
//! shared index — real parallelism — while every observable
//! output stays deterministic: probes are pure functions of their job,
//! results are merged back in job order, and timing is *virtual*: a
//! policy-selected schedule from [`antarex_sim::sched`] replays the
//! batch on `workers` virtual cores using the probes' reported compute
//! costs. The virtual makespan, not the wall clock, is what reports and
//! tests consume, so runs are byte-identical at any physical core
//! count.
//!
//! The threads are the pool's for its life (a
//! [`WorkerSet`]): `workers − 1`
//! helpers, spawned by the first parallel batch and joined when the
//! pool drops, with the thread calling
//! [`EvalPool::evaluate_batch_on`] as worker 0. A batch wakes them; it
//! spawns nothing. At one worker nothing is ever spawned.
//!
//! The service runs one [`SchedPolicy`]. The default
//! [`SchedPolicy::Static`] is the greedy list placement of
//! [`antarex_sim::sched::list_schedule`] (earliest-free worker first,
//! lowest index on ties) on the actual costs. Heavy-tailed campaigns
//! (drug-discovery docking) run [`SchedPolicy::WorkSteal`] — a
//! deterministic work-stealing simulation whose placement runs on
//! *estimated* costs from the pool's `CostEstimator` (quantized feature
//! keys, EWMA-refined from observed probe costs) — or the
//! [`SchedPolicy::Lpt`] placement fallback.
//!
//! Admission control is load shedding: the queue is bounded, and a
//! batch that overflows it has its tail shed *before* any work starts
//! rather than stalling every tenant behind it.

use crate::cache::{probe_seed, Metrics};
use crate::error::ServeError;
use crate::store::{TenantClass, TenantId};
use antarex_obs::TraceCtx;
use antarex_sim::sched;
pub use antarex_sim::sched::SchedPolicy;
pub(crate) use antarex_sim::sched::SchedStats;
use antarex_tuner::dse::WorkerSet;
use antarex_tuner::Configuration;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One design-point probe to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalJob {
    /// Position in the batch (assignment and merge order).
    pub id: usize,
    /// Tenant that first requested this design point.
    pub tenant: TenantId,
    /// Workload class of the requesting tenant; selects the metric
    /// bucket its steals and makespan are counted in.
    pub class: TenantClass,
    /// The knob configuration to measure.
    pub config: Configuration,
    /// Workload features the probe runs under.
    pub features: Vec<f64>,
    /// Causal context of the request that first demanded this probe;
    /// [`TraceCtx::NONE`] for untraced work.
    pub trace: TraceCtx,
}

/// What a probe reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Measured metrics of the design point.
    pub metrics: Metrics,
    /// Virtual compute cost of the probe, seconds.
    pub cost_s: f64,
    /// Metered IT energy the probe spent, joules (VM `flop_energy`
    /// rolled up through the evaluator's power model). Direct input to
    /// per-request energy attribution.
    pub energy_j: f64,
}

/// One merged result.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// The job this result answers.
    pub job: EvalJob,
    /// The probe's evaluation.
    pub evaluation: Evaluation,
    /// Virtual completion time of the job within the batch, seconds
    /// after batch start (queue wait + compute on its virtual worker).
    pub completion_s: f64,
}

/// Outcome of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Results in job-id order (admitted jobs only).
    pub results: Vec<EvalResult>,
    /// Jobs shed by admission control (the batch tail past capacity).
    pub shed: Vec<EvalJob>,
    /// Virtual makespan of the admitted jobs on `workers` cores.
    pub makespan_s: f64,
    /// Steal/queue accounting from the virtual schedule.
    pub stats: SchedStats,
}

/// Pool sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads (and virtual cores in the replayed schedule).
    pub workers: usize,
    /// Bounded queue: probes admitted per batch before shedding.
    pub queue_capacity: usize,
}

impl PoolConfig {
    /// Validates the sizing, returning a typed error instead of
    /// panicking.
    pub(crate) fn try_validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "pool needs at least one worker",
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue capacity must be positive",
            });
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(ServeError::InvalidConfig { reason }) = self.try_validate() {
            panic!("{}", reason);
        }
    }
}

/// The scheduler policy of one service: every batch replays on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedConfig {
    /// The policy every batch is scheduled with.
    pub policy: SchedPolicy,
}

impl SchedConfig {
    /// Work stealing for every batch.
    pub fn work_stealing() -> Self {
        SchedConfig {
            policy: SchedPolicy::WorkSteal,
        }
    }
}

/// Exponentially-weighted moving-average cost predictor keyed by the
/// quantized (configuration, features) probe seed.
///
/// Estimates feed *placement* decisions of the estimate-driven policies
/// ([`SchedPolicy::Lpt`], [`SchedPolicy::WorkSteal`]); execution time
/// in the virtual replay always uses the observed probe costs, so a bad
/// estimate degrades balance, never correctness or determinism. The
/// table is refined in job-id order after every batch, which keeps it a
/// pure function of the job stream — independent of physical thread
/// count.
#[derive(Debug, Clone, Default)]
pub(crate) struct CostEstimator {
    state: Arc<Mutex<EstimatorState>>,
}

#[derive(Debug, Default)]
struct EstimatorState {
    table: BTreeMap<u64, f64>,
    mean: f64,
    observed: u64,
}

/// EWMA smoothing factor for refining cost estimates.
const ESTIMATE_ALPHA: f64 = 0.3;

impl CostEstimator {
    /// Predicted cost for a probe key: the refined per-key EWMA, the
    /// global mean for unseen keys, or 1.0 before any observation.
    pub(crate) fn estimate(&self, key: u64) -> f64 {
        let state = crate::lock_or_recover(&self.state);
        match state.table.get(&key) {
            Some(&cost) => cost,
            None if state.observed > 0 => state.mean,
            None => 1.0,
        }
    }

    /// Folds an observed probe cost into the per-key EWMA and the
    /// global mean.
    pub(crate) fn observe(&self, key: u64, cost_s: f64) {
        let cost = cost_s.max(0.0);
        let mut state = crate::lock_or_recover(&self.state);
        state
            .table
            .entry(key)
            .and_modify(|old| *old = ESTIMATE_ALPHA * cost + (1.0 - ESTIMATE_ALPHA) * *old)
            .or_insert(cost);
        state.observed += 1;
        let n = state.observed as f64;
        state.mean += (cost - state.mean) / n;
    }
}

/// The evaluation pool.
#[derive(Debug)]
pub struct EvalPool {
    config: PoolConfig,
    sched: SchedConfig,
    estimator: CostEstimator,
    /// `config.workers` threads for the pool's life: the caller of a
    /// batch and `workers − 1` helpers.
    workers: WorkerSet,
}

impl EvalPool {
    /// Creates a pool with the default static schedule.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero workers or zero capacity.
    pub fn new(config: PoolConfig) -> Self {
        config.validate();
        EvalPool {
            config,
            sched: SchedConfig::default(),
            estimator: CostEstimator::default(),
            workers: WorkerSet::new(config.workers),
        }
    }

    /// Replaces the scheduler policy.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// The pool sizing.
    pub(crate) fn config(&self) -> PoolConfig {
        self.config
    }

    /// Evaluates a batch — admits up to `queue_capacity` jobs, sheds
    /// the rest, runs the admitted probes on the pool's workers and
    /// merges results deterministically — with an explicit *virtual*
    /// core count for the replayed schedule: the autoscaler's entry
    /// point. `probe` must be a pure function of the job, the contract
    /// that makes the parallel schedule invisible in the output.
    /// Physical parallelism stays at the configured worker count; only
    /// the virtual schedule (and hence completion times and makespan)
    /// follows `virtual_workers`, so a capacity change is a pure
    /// work-content decision and the output stays byte-identical at
    /// any physical thread count.
    ///
    /// # Panics
    ///
    /// Panics if `virtual_workers` is zero.
    pub fn evaluate_batch_on<F>(
        &self,
        jobs: Vec<EvalJob>,
        virtual_workers: usize,
        probe: &F,
    ) -> BatchOutcome
    where
        F: Fn(&EvalJob) -> Evaluation + Sync,
    {
        match self.try_evaluate_batch_on(jobs, virtual_workers, probe) {
            Ok(outcome) => outcome,
            Err(ServeError::InvalidConfig { reason }) => panic!("{}", reason),
            Err(other) => panic!("{}", other),
        }
    }

    /// [`evaluate_batch_on`](EvalPool::evaluate_batch_on) returning a
    /// typed [`ServeError::InvalidConfig`] when `virtual_workers` is
    /// zero instead of panicking.
    pub(crate) fn try_evaluate_batch_on<F>(
        &self,
        mut jobs: Vec<EvalJob>,
        virtual_workers: usize,
        probe: &F,
    ) -> Result<BatchOutcome, ServeError>
    where
        F: Fn(&EvalJob) -> Evaluation + Sync,
    {
        if virtual_workers == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "need at least one virtual worker",
            });
        }
        let admitted_count = jobs.len().min(self.config.queue_capacity);
        let shed = jobs.split_off(admitted_count);
        let evaluations = self.workers.map(&jobs, probe);
        let policy = self.sched.policy;
        let costs: Vec<f64> = evaluations.iter().map(|e| e.cost_s).collect();
        let schedule = if policy == SchedPolicy::Static {
            // List placement places by actual cost: refining estimates
            // would add a table entry per fresh design point that
            // nothing reads.
            sched::list_schedule(&costs, virtual_workers)
        } else {
            let keys: Vec<u64> = jobs
                .iter()
                .map(|job| probe_seed(&job.config, &job.features))
                .collect();
            let estimates: Vec<f64> = keys
                .iter()
                .map(|&key| self.estimator.estimate(key))
                .collect();
            let schedule = sched::schedule(policy, &costs, &estimates, virtual_workers);
            // Refine in job-id order: deterministic at any thread count.
            for (&key, &cost) in keys.iter().zip(&costs) {
                self.estimator.observe(key, cost);
            }
            schedule
        };
        let results = jobs
            .into_iter()
            .zip(evaluations)
            .zip(schedule.completions)
            .map(|((job, evaluation), completion_s)| EvalResult {
                job,
                evaluation,
                completion_s,
            })
            .collect();
        Ok(BatchOutcome {
            results,
            shed,
            makespan_s: schedule.makespan_s,
            stats: schedule.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_tuner::KnobValue;

    fn job(id: usize) -> EvalJob {
        let mut config = Configuration::new();
        config.set("level", KnobValue::Int(id as i64));
        EvalJob {
            id,
            tenant: id as u64,
            class: TenantClass::Generic,
            config,
            features: vec![id as f64],
            trace: TraceCtx::NONE,
        }
    }

    /// A pool of `workers` threads behind the default 256-probe queue.
    fn pool_of(workers: usize) -> EvalPool {
        EvalPool::new(PoolConfig {
            workers,
            queue_capacity: 256,
        })
    }

    fn probe(j: &EvalJob) -> Evaluation {
        Evaluation {
            metrics: [("latency".to_string(), 0.01 * (j.id + 1) as f64)]
                .into_iter()
                .collect(),
            cost_s: 1.0,
            energy_j: 0.5,
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let pool = pool_of(4);
        let outcome = pool.evaluate_batch_on((0..37).map(job).collect(), 4, &probe);
        assert_eq!(outcome.results.len(), 37);
        for (i, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.job.id, i);
            assert_eq!(
                r.evaluation.metrics.get("latency"),
                Some(&(0.01 * (i + 1) as f64))
            );
        }
        assert!(outcome.shed.is_empty());
    }

    #[test]
    fn parallel_batches_are_byte_identical() {
        let jobs: Vec<EvalJob> = (0..64).map(job).collect();
        let four = pool_of(4);
        let a = four.evaluate_batch_on(jobs.clone(), 4, &probe);
        let b = four.evaluate_batch_on(jobs, 4, &probe);
        assert_eq!(a, b, "same batch must merge identically across runs");
    }

    #[test]
    fn virtual_makespan_scales_with_workers() {
        let jobs: Vec<EvalJob> = (0..64).map(job).collect();
        let one = pool_of(1)
            .evaluate_batch_on(jobs.clone(), 1, &probe)
            .makespan_s;
        let four = pool_of(4).evaluate_batch_on(jobs, 4, &probe).makespan_s;
        assert!((one - 64.0).abs() < 1e-9);
        assert!(
            (four - 16.0).abs() < 1e-9,
            "64 unit jobs on 4 cores: {four}"
        );
    }

    #[test]
    fn admission_control_sheds_the_tail() {
        let pool = EvalPool::new(PoolConfig {
            workers: 2,
            queue_capacity: 10,
        });
        let outcome = pool.evaluate_batch_on((0..15).map(job).collect(), 2, &probe);
        assert_eq!(outcome.results.len(), 10);
        assert_eq!(outcome.shed.len(), 5);
        assert_eq!(outcome.shed[0].id, 10, "shed jobs are the batch tail");
    }

    #[test]
    fn completion_times_include_queue_wait() {
        let pool = pool_of(2);
        let outcome = pool.evaluate_batch_on((0..4).map(job).collect(), 2, &probe);
        let completions: Vec<f64> = outcome.results.iter().map(|r| r.completion_s).collect();
        // unit costs, 2 virtual cores: jobs 0,1 finish at 1.0; jobs 2,3 at 2.0
        assert_eq!(completions, vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(outcome.makespan_s, 2.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = pool_of(4);
        let outcome = pool.evaluate_batch_on(Vec::new(), 4, &probe);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.makespan_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = pool_of(0);
    }

    #[test]
    fn virtual_capacity_overrides_schedule_not_parallelism() {
        let jobs: Vec<EvalJob> = (0..64).map(job).collect();
        let pool = pool_of(4);
        // 16 virtual cores on a 4-thread pool: the schedule follows
        // the virtual count
        let scaled = pool.evaluate_batch_on(jobs.clone(), 16, &probe);
        assert!((scaled.makespan_s - 4.0).abs() < 1e-9);
        // and the outcome is byte-identical to a pool physically
        // configured with 16 workers
        let native = pool_of(16).evaluate_batch_on(jobs, 16, &probe);
        assert_eq!(scaled, native);
    }

    #[test]
    #[should_panic(expected = "virtual worker")]
    fn zero_virtual_workers_rejected() {
        let pool = pool_of(2);
        let _ = pool.evaluate_batch_on(vec![job(0)], 0, &probe);
    }

    #[test]
    fn try_path_returns_typed_invalid_config() {
        let pool = pool_of(2);
        let err = pool
            .try_evaluate_batch_on(vec![job(0)], 0, &probe)
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidConfig {
                reason: "need at least one virtual worker"
            }
        );
        assert!(PoolConfig {
            workers: 0,
            queue_capacity: 8,
        }
        .try_validate()
        .is_err());
        assert!(PoolConfig {
            workers: 2,
            queue_capacity: 0,
        }
        .try_validate()
        .is_err());
    }

    /// Heavy-tailed probe whose cost is its id, descending — a sorted
    /// "library" where static block partitioning piles the whales onto
    /// core zero.
    fn whale_probe(j: &EvalJob) -> Evaluation {
        Evaluation {
            metrics: Metrics::default(),
            cost_s: (256 - j.id) as f64,
            energy_j: 0.0,
        }
    }

    #[test]
    fn work_stealing_rebalances_a_sorted_tail() {
        let jobs: Vec<EvalJob> = (0..256).map(job).collect();
        let static_pool = EvalPool::new(PoolConfig {
            workers: 4,
            queue_capacity: 1024,
        })
        .with_sched(SchedConfig {
            policy: SchedPolicy::Block,
        });
        let steal_pool = EvalPool::new(PoolConfig {
            workers: 4,
            queue_capacity: 1024,
        })
        .with_sched(SchedConfig::work_stealing());
        let blocked = static_pool.evaluate_batch_on(jobs.clone(), 4, &whale_probe);
        let stolen = steal_pool.evaluate_batch_on(jobs, 4, &whale_probe);
        assert_eq!(blocked.stats.steals, 0, "block placement never steals");
        assert!(
            stolen.makespan_s < blocked.makespan_s,
            "steal {} vs block {}",
            stolen.makespan_s,
            blocked.makespan_s
        );
        assert!(stolen.stats.steals > 0);
    }

    #[test]
    fn stealing_outcome_is_physical_worker_invariant() {
        let jobs: Vec<EvalJob> = (0..128).map(job).collect();
        let outcomes: Vec<BatchOutcome> = [1usize, 2, 4, 8]
            .iter()
            .map(|&physical| {
                EvalPool::new(PoolConfig {
                    workers: physical,
                    queue_capacity: 1024,
                })
                .with_sched(SchedConfig::work_stealing())
                .evaluate_batch_on(jobs.clone(), 4, &whale_probe)
            })
            .collect();
        for other in &outcomes[1..] {
            assert_eq!(&outcomes[0], other, "schedule must not see thread count");
        }
    }

    #[test]
    fn estimator_refines_toward_observed_costs() {
        let estimator = CostEstimator::default();
        assert_eq!(estimator.estimate(7), 1.0, "cold estimator guesses unit");
        estimator.observe(7, 4.0);
        assert_eq!(estimator.estimate(7), 4.0, "first observation seeds");
        estimator.observe(7, 8.0);
        let refined = estimator.estimate(7);
        assert!(refined > 4.0 && refined < 8.0, "EWMA moved: {refined}");
        assert_eq!(
            estimator.estimate(99),
            estimator.state.lock().unwrap().mean,
            "unseen keys fall back to the global mean"
        );
        assert_eq!(estimator.state.lock().unwrap().table.len(), 1);
    }
}
