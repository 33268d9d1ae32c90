//! Chaos injection and hedged-retry scheduling for the evaluation pool.
//!
//! On an exascale machine the pool's workers crash, silently slow down
//! ("gray" stragglers), and occasionally hand back bit-flipped results.
//! This module maps a deterministic [`FaultSchedule`] from
//! `antarex_sim::faults` onto the pool's *virtual* workers (virtual
//! worker *w* = fault-schedule node *w*) and replays every batch
//! through a fault-aware list scheduler:
//!
//! * a probe dispatched onto a worker that crashes mid-run fails at the
//!   crash instant and is **retried** on the earliest healthy worker
//!   after a capped exponential backoff;
//! * a probe landing on a gray (slowed) worker is **hedged**: once the
//!   primary has been running for [`HedgePolicy::hedge_after_s`]
//!   without finishing, a duplicate dispatches to another worker; the
//!   first verified result wins and the loser is cancelled, releasing
//!   its worker at the winning instant;
//! * every completed attempt is **integrity-checked** against the
//!   probe's FNV digest; a result computed inside a data-corruption
//!   window fails the check, is quarantined (never cached), and burns a
//!   retry;
//! * each job carries a **deadline budget** from its first dispatch;
//!   when crashes, corruption, and backoff exhaust it, the job fails
//!   with [`ServeError::Deadline`].
//!
//! All of it happens in virtual time over evaluations that were
//! computed once by the real (pure) probe, so the chaotic run is as
//! deterministic as the healthy one: same seed, same bytes, at any
//! physical core count.

use crate::error::ServeError;
use crate::pool::Evaluation;
use crate::store::TenantId;
use antarex_sim::faults::FaultSchedule;

/// Deterministic fault environment of one service instance.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault timeline; node *w* of the schedule is virtual worker *w*
    /// of the pool.
    pub schedule: FaultSchedule,
    /// Tenants whose probes always fail the integrity check — the
    /// "poisoned evaluator" scenario the per-tenant circuit breaker
    /// exists to contain.
    pub poisoned_tenants: Vec<TenantId>,
}

impl ChaosConfig {
    /// Chaos driven purely by a fault schedule, no poisoned tenants.
    pub fn new(schedule: FaultSchedule) -> Self {
        ChaosConfig {
            schedule,
            poisoned_tenants: Vec::new(),
        }
    }

    /// Marks a tenant's probes as permanently corrupt.
    pub fn poison(mut self, tenant: TenantId) -> Self {
        self.poisoned_tenants.push(tenant);
        self
    }
}

/// Deadline, hedging, and retry budget of one evaluation job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Virtual deadline budget per job, measured from its first
    /// dispatch; `f64::INFINITY` disables deadline enforcement.
    pub deadline_s: f64,
    /// A primary attempt still running this long after dispatch gets a
    /// hedge duplicate on another worker; `f64::INFINITY` disables
    /// hedging.
    pub hedge_after_s: f64,
    /// Retries after a failed (crashed or corrupted) attempt.
    pub max_retries: u32,
    /// First retry backoff, virtual seconds.
    pub backoff_base_s: f64,
    /// Backoff cap: delays grow `base · 2^attempt` up to this.
    pub backoff_cap_s: f64,
}

impl HedgePolicy {
    /// The hardened default: three retries, 50 ms base backoff capped
    /// at 1 s, hedging after 1 s, a 30 s deadline.
    pub fn hardened() -> Self {
        HedgePolicy {
            deadline_s: 30.0,
            hedge_after_s: 1.0,
            max_retries: 3,
            backoff_base_s: 0.05,
            backoff_cap_s: 1.0,
        }
    }

    /// The unhardened baseline: no retries, no hedging, no deadline —
    /// a crashed or corrupted probe is simply a dropped request.
    pub fn disabled() -> Self {
        HedgePolicy {
            deadline_s: f64::INFINITY,
            hedge_after_s: f64::INFINITY,
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_cap_s: 0.0,
        }
    }

    /// Backoff before retry number `attempt` (1-based), capped.
    pub(crate) fn backoff_s(&self, attempt: u32) -> f64 {
        let factor = 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        (self.backoff_base_s * factor).min(self.backoff_cap_s)
    }
}

/// FNV-1a digest of an evaluation — the end-to-end checksum a worker
/// attaches to its result and the merge layer verifies.
pub(crate) fn evaluation_digest(evaluation: &Evaluation) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (metric, value) in &evaluation.metrics {
        eat(metric.as_bytes());
        eat(&value.to_bits().to_le_bytes());
    }
    eat(&evaluation.cost_s.to_bits().to_le_bytes());
    eat(&evaluation.energy_j.to_bits().to_le_bytes());
    hash
}

/// What a data-corruption window does to a result in flight: one bit
/// of the first metric's mantissa flips. Detectable only because the
/// digest was taken before the flip.
pub(crate) fn corrupt_evaluation(evaluation: &Evaluation) -> Evaluation {
    let mut corrupted = evaluation.clone();
    if let Some((_, value)) = corrupted.metrics.iter_mut().next() {
        *value = f64::from_bits(value.to_bits() ^ (1 << 51));
    } else {
        corrupted.cost_s = f64::from_bits(corrupted.cost_s.to_bits() ^ (1 << 51));
    }
    corrupted
}

/// Does the delivered evaluation still match the digest taken at
/// compute time?
pub(crate) fn integrity_ok(delivered: &Evaluation, expected_digest: u64) -> bool {
    evaluation_digest(delivered) == expected_digest
}

/// One scheduled attempt of a job on a virtual worker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attempt {
    /// The attempt completed (integrity still unchecked) at the time.
    Finished(f64),
    /// The worker crashed mid-run at the time.
    Crashed(f64),
}

/// Accounting of one chaos-scheduled job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct JobChaosStats {
    /// Failed attempts that were re-dispatched with backoff.
    pub retries: u32,
    /// Hedge duplicates dispatched against stragglers.
    pub hedges: u32,
    /// Attempts whose result failed the integrity check.
    pub corrupt_attempts: u32,
    /// Attempts that died with their worker.
    pub crashed_attempts: u32,
}

/// Outcome of one job under chaos: its verified virtual completion
/// time, or the typed error that ended it.
pub(crate) type JobOutcome = Result<f64, ServeError>;

/// Replays one batch's evaluations through the fault-aware list
/// scheduler on `workers` virtual workers starting at virtual time
/// `batch_start_s`. `evaluations[i]` is the pure probe result of job
/// `i`; `poisoned[i]` marks jobs whose results always fail integrity.
///
/// Returns per-job outcomes (virtual completion or error), per-job
/// chaos accounting, and the batch makespan (latest busy instant over
/// all workers, relative to the batch start).
///
/// Deterministic: a pure function of its arguments — jobs are laid out
/// in id order, ties broken by worker index, and all timing is
/// virtual.
pub(crate) fn chaos_schedule(
    evaluations: &[Evaluation],
    poisoned: &[bool],
    workers: usize,
    batch_start_s: f64,
    chaos: &ChaosConfig,
    policy: &HedgePolicy,
) -> (Vec<JobOutcome>, Vec<JobChaosStats>, f64) {
    let workers = workers.max(1);
    let mut busy_until = vec![batch_start_s; workers];
    let mut outcomes = Vec::with_capacity(evaluations.len());
    let mut stats = Vec::with_capacity(evaluations.len());

    for (job, evaluation) in evaluations.iter().enumerate() {
        let mut job_stats = JobChaosStats::default();
        let cost = evaluation.cost_s.max(0.0);
        let mut not_before = batch_start_s;
        let mut first_dispatch: Option<f64> = None;
        let mut outcome: JobOutcome = Err(ServeError::WorkerFailed { worker: 0 });

        for attempt in 0..=policy.max_retries {
            let Some((worker, start)) = pick_worker(&busy_until, not_before, chaos, &[]) else {
                // every worker is dead with no repair in sight
                outcome = Err(ServeError::WorkerFailed { worker: 0 });
                break;
            };
            let deadline = *first_dispatch.get_or_insert(start) + policy.deadline_s;
            if start > deadline {
                outcome = Err(ServeError::Deadline);
                break;
            }
            let primary = run_attempt(worker, start, cost, chaos);
            // hedge a straggling primary on a different healthy worker
            let mut hedge: Option<(usize, Attempt)> = None;
            let primary_end = match primary {
                Attempt::Finished(t) => t,
                Attempt::Crashed(t) => t,
            };
            let hedge_at = start + policy.hedge_after_s;
            if primary_end > hedge_at {
                if let Some((hedge_worker, hedge_start)) =
                    pick_worker(&busy_until, hedge_at, chaos, &[worker])
                {
                    if hedge_start <= deadline {
                        job_stats.hedges += 1;
                        hedge = Some((
                            hedge_worker,
                            run_attempt(hedge_worker, hedge_start, cost, chaos),
                        ));
                    }
                }
            }

            // first *successful* finisher wins; crashes only count when
            // both replicas crash
            let candidates = |a: &Option<(usize, Attempt)>| -> Vec<(usize, Attempt)> {
                let mut v = vec![(worker, primary)];
                if let Some((w, att)) = a {
                    v.push((*w, *att));
                }
                v
            };
            let all = candidates(&hedge);
            let winner = all
                .iter()
                .filter_map(|&(w, att)| match att {
                    Attempt::Finished(t) => Some((w, t)),
                    Attempt::Crashed(_) => None,
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

            match winner {
                Some((win_worker, win_t)) => {
                    // occupy both workers up to the decisive instant;
                    // the losing replica is cancelled at the win
                    for (w, att) in &all {
                        let end = match att {
                            Attempt::Finished(t) => *t,
                            Attempt::Crashed(t) => *t,
                        };
                        busy_until[*w] = busy_until[*w].max(end.min(win_t));
                    }
                    job_stats.crashed_attempts += all
                        .iter()
                        .filter(|(_, att)| matches!(att, Attempt::Crashed(t) if *t <= win_t))
                        .count() as u32;
                    let corrupted = poisoned.get(job).copied().unwrap_or(false)
                        || chaos.schedule.corrupted(win_worker, win_t);
                    if corrupted {
                        // end-to-end checksum catches the bit flip: the
                        // result is quarantined, the attempt has failed
                        let digest = evaluation_digest(evaluation);
                        debug_assert!(!integrity_ok(&corrupt_evaluation(evaluation), digest));
                        job_stats.corrupt_attempts += 1;
                        if win_t > deadline {
                            outcome = Err(ServeError::Deadline);
                            break;
                        }
                        outcome = Err(ServeError::WorkerFailed { worker: win_worker });
                        if attempt < policy.max_retries {
                            job_stats.retries += 1;
                            not_before = win_t + policy.backoff_s(attempt + 1);
                            continue;
                        }
                        break;
                    }
                    if win_t > deadline {
                        outcome = Err(ServeError::Deadline);
                    } else {
                        outcome = Ok(win_t);
                    }
                    break;
                }
                None => {
                    // every replica crashed: workers are blocked until
                    // their crash instants, the job retries after backoff
                    let mut last_crash = start;
                    let mut crash_worker = worker;
                    for (w, att) in &all {
                        if let Attempt::Crashed(t) = att {
                            busy_until[*w] = busy_until[*w].max(*t);
                            job_stats.crashed_attempts += 1;
                            if *t >= last_crash {
                                last_crash = *t;
                                crash_worker = *w;
                            }
                        }
                    }
                    if last_crash > deadline {
                        outcome = Err(ServeError::Deadline);
                        break;
                    }
                    outcome = Err(ServeError::WorkerFailed {
                        worker: crash_worker,
                    });
                    if attempt < policy.max_retries {
                        job_stats.retries += 1;
                        not_before = last_crash + policy.backoff_s(attempt + 1);
                    }
                }
            }
        }

        outcomes.push(outcome);
        stats.push(job_stats);
    }

    let makespan = busy_until.iter().fold(batch_start_s, |acc, &t| acc.max(t)) - batch_start_s;
    (outcomes, stats, makespan)
}

/// The earliest (worker, dispatch time) at or after `not_before` whose
/// worker is alive at dispatch, lowest index on ties; workers in
/// `exclude` are skipped (hedge placement). Dead workers become
/// eligible again at their repair instant. Returns `None` when no
/// worker is ever alive again within the schedule horizon.
fn pick_worker(
    busy_until: &[f64],
    not_before: f64,
    chaos: &ChaosConfig,
    exclude: &[usize],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (worker, &busy) in busy_until.iter().enumerate() {
        if exclude.contains(&worker) {
            continue;
        }
        let mut ready = busy.max(not_before);
        if !chaos.schedule.node_alive(worker, ready) {
            // wait for the repair: the next instant the node is alive
            match chaos.schedule.next_repair_after(worker, ready) {
                Some(repair) => ready = repair,
                None => continue,
            }
        }
        match best {
            Some((_, t)) if t <= ready => {}
            _ => best = Some((worker, ready)),
        }
    }
    best
}

/// Runs one attempt on a virtual worker: the compute cost is stretched
/// by the worker's gray slowdown at dispatch, and a crash inside the
/// execution window kills the attempt at the crash instant.
fn run_attempt(worker: usize, start: f64, cost: f64, chaos: &ChaosConfig) -> Attempt {
    let effective = cost * chaos.schedule.slowdown(worker, start).max(1.0);
    let end = start + effective;
    match chaos.schedule.first_crash_in(worker, start, end) {
        Some(crash) => Attempt::Crashed(crash),
        None => Attempt::Finished(end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::faults::FaultConfig;

    fn eval(cost: f64) -> Evaluation {
        Evaluation {
            metrics: [("latency".to_string(), cost)].into_iter().collect(),
            cost_s: cost,
            energy_j: 0.0,
        }
    }

    fn quiet_chaos() -> ChaosConfig {
        ChaosConfig::new(FaultSchedule::generate(&FaultConfig::none(1), 4, 10_000.0))
    }

    /// A schedule with exactly one crash (repaired after 5 s) on the
    /// single worker, found by scanning seeds — deterministic once the
    /// scan settles.
    fn one_crash_chaos() -> ChaosConfig {
        for seed in 0..1000 {
            let mut config = FaultConfig::none(seed);
            config.node_mtbf_s = 30.0;
            config.weibull_shape = 1.0;
            config.repair_time_s = 5.0;
            let schedule = FaultSchedule::generate(&config, 1, 100.0);
            let crashes = schedule.any_crash_between(0.0, 100.0);
            if crashes.len() == 1 && crashes[0] < 40.0 {
                return ChaosConfig::new(schedule);
            }
        }
        panic!("no single-crash seed in scan range");
    }

    #[test]
    fn digest_catches_the_bit_flip() {
        let clean = eval(0.25);
        let digest = evaluation_digest(&clean);
        assert!(integrity_ok(&clean, digest));
        let flipped = corrupt_evaluation(&clean);
        assert_ne!(clean, flipped);
        assert!(!integrity_ok(&flipped, digest));
        // a metric-less evaluation corrupts through its cost
        let bare = Evaluation {
            metrics: Default::default(),
            cost_s: 1.0,
            energy_j: 0.0,
        };
        assert!(!integrity_ok(
            &corrupt_evaluation(&bare),
            evaluation_digest(&bare)
        ));
    }

    #[test]
    fn fault_free_chaos_matches_plain_list_schedule() {
        let evals: Vec<Evaluation> = (0..6).map(|_| eval(1.0)).collect();
        let chaos = quiet_chaos();
        let (outcomes, stats, makespan) = chaos_schedule(
            &evals,
            &[false; 6],
            2,
            0.0,
            &chaos,
            &HedgePolicy::hardened(),
        );
        let completions: Vec<f64> = outcomes.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(completions, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert_eq!(makespan, 3.0);
        assert!(stats.iter().all(|s| *s == JobChaosStats::default()));
    }

    #[test]
    fn crashed_attempt_retries_on_backoff_and_succeeds() {
        let chaos = one_crash_chaos();
        let first_crash = chaos.schedule.any_crash_between(0.0, 100.0)[0];
        // a long job dispatched at t=0 straddles the crash
        let evals = vec![eval(first_crash + 1.0)];
        let policy = HedgePolicy {
            deadline_s: f64::INFINITY,
            hedge_after_s: f64::INFINITY,
            ..HedgePolicy::hardened()
        };
        let (outcomes, stats, _) = chaos_schedule(&evals, &[false], 1, 0.0, &chaos, &policy);
        assert!(outcomes[0].is_ok(), "retry after repair must succeed");
        assert_eq!(stats[0].retries, 1);
        assert_eq!(stats[0].crashed_attempts, 1);
        // the retry waited for the repair (crash + 5 s)
        assert!(outcomes[0].clone().unwrap() > first_crash + 5.0);
    }

    #[test]
    fn unhardened_policy_drops_the_crashed_job() {
        let chaos = one_crash_chaos();
        let first_crash = chaos.schedule.any_crash_between(0.0, 100.0)[0];
        let evals = vec![eval(first_crash + 1.0)];
        let (outcomes, _, _) =
            chaos_schedule(&evals, &[false], 1, 0.0, &chaos, &HedgePolicy::disabled());
        assert!(matches!(outcomes[0], Err(ServeError::WorkerFailed { .. })));
    }

    #[test]
    fn straggler_is_hedged_and_the_fast_replica_wins() {
        // the schedule is generated for ONE node, so only worker 0 has
        // gray windows; worker 1 of the two-worker pool is fault-free
        let mut config = FaultConfig::none(3);
        config.gray_mtbf_s = 4.0;
        config.gray_slowdown = 10.0;
        config.gray_duration_s = 5_000.0;
        let schedule = FaultSchedule::generate(&config, 1, 10_000.0);
        let gray_start = (0..10_000)
            .map(f64::from)
            .find(|&t| schedule.slowdown(0, t) > 1.0)
            .expect("gray window on node 0");
        let chaos = ChaosConfig::new(schedule);
        let policy = HedgePolicy {
            hedge_after_s: 0.5,
            ..HedgePolicy::hardened()
        };
        let (outcomes, stats, _) =
            chaos_schedule(&[eval(2.0)], &[false], 2, gray_start, &chaos, &policy);
        let done = outcomes[0].clone().unwrap();
        assert_eq!(stats[0].hedges, 1, "slowed primary must be hedged");
        // winner is the healthy hedge: dispatched 0.5 s in, runs 2 s,
        // while the gray primary would have taken 20 s
        assert!(
            done < gray_start + 20.0,
            "hedge must beat the 10x straggler: {done}"
        );
    }

    #[test]
    fn poisoned_job_exhausts_retries_and_fails() {
        let chaos = quiet_chaos();
        let policy = HedgePolicy::hardened();
        let (outcomes, stats, _) = chaos_schedule(&[eval(1.0)], &[true], 2, 0.0, &chaos, &policy);
        assert!(matches!(outcomes[0], Err(ServeError::WorkerFailed { .. })));
        assert_eq!(stats[0].retries, policy.max_retries);
        assert_eq!(stats[0].corrupt_attempts, policy.max_retries + 1);
    }

    #[test]
    fn deadline_budget_is_enforced() {
        let chaos = quiet_chaos();
        let policy = HedgePolicy {
            deadline_s: 0.5,
            hedge_after_s: f64::INFINITY,
            ..HedgePolicy::hardened()
        };
        let (outcomes, _, _) = chaos_schedule(&[eval(2.0)], &[false], 2, 0.0, &chaos, &policy);
        assert_eq!(outcomes[0], Err(ServeError::Deadline));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = HedgePolicy {
            backoff_base_s: 0.1,
            backoff_cap_s: 0.5,
            ..HedgePolicy::hardened()
        };
        assert_eq!(policy.backoff_s(1), 0.1);
        assert_eq!(policy.backoff_s(2), 0.2);
        assert_eq!(policy.backoff_s(3), 0.4);
        assert_eq!(policy.backoff_s(4), 0.5, "capped");
        assert_eq!(policy.backoff_s(30), 0.5, "stays capped");
    }

    #[test]
    fn chaos_schedule_is_deterministic() {
        let chaos = one_crash_chaos();
        let evals: Vec<Evaluation> = (0..8).map(|i| eval(0.5 + 0.25 * i as f64)).collect();
        let run = || {
            chaos_schedule(
                &evals,
                &[false; 8],
                1,
                0.0,
                &chaos,
                &HedgePolicy::hardened(),
            )
        };
        assert_eq!(run(), run());
    }
}
