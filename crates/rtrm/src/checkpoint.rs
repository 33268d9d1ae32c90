//! Coordinated checkpoint/restart with a tunable interval.
//!
//! On a machine that crashes, an application either restarts from zero
//! (losing everything) or periodically saves state and resumes from the
//! last checkpoint. The checkpoint interval is a classic autotuning
//! knob: checkpoint too often and the overhead dominates, too rarely
//! and every crash wastes a long stretch of work. The analytic optimum
//! is Daly's first-order formula `τ* ≈ √(2·C·M) − C` for checkpoint
//! cost `C` and MTBF `M` ([`CheckpointPolicy::daly`]); the resiliency
//! campaign in `antarex-bench` sweeps the interval around it.
//!
//! [`run_to_completion`] replays a piece of work against a list of
//! crash times (from `antarex_sim::faults`) and accounts every second
//! of wall clock as completed work, checkpoint overhead, restart
//! overhead, or wasted (lost) work — the quantities the fault campaign
//! reports.

/// When and how expensively to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Work seconds between checkpoints; `f64::INFINITY` disables
    /// checkpointing (restart-from-zero baseline).
    pub interval_s: f64,
    /// Wall-clock cost of writing one checkpoint, seconds.
    pub cost_s: f64,
    /// Wall-clock cost of restarting from a checkpoint (or from zero)
    /// after a crash, seconds.
    pub restart_s: f64,
}

impl CheckpointPolicy {
    /// A policy with a fixed interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not positive, or costs are negative.
    pub fn every(interval_s: f64, cost_s: f64, restart_s: f64) -> Self {
        assert!(interval_s > 0.0, "checkpoint interval must be positive");
        assert!(
            cost_s >= 0.0 && restart_s >= 0.0,
            "checkpoint costs must be non-negative"
        );
        CheckpointPolicy {
            interval_s,
            cost_s,
            restart_s,
        }
    }

    /// The no-resiliency baseline: never checkpoint, every crash
    /// restarts the run from zero.
    pub fn none(restart_s: f64) -> Self {
        CheckpointPolicy {
            interval_s: f64::INFINITY,
            cost_s: 0.0,
            restart_s,
        }
    }

    /// Daly's first-order optimal interval `√(2·C·M) − C` for
    /// checkpoint cost `C` = `cost_s` and mean time between failures
    /// `M` = `mtbf_s`, clamped below by `cost_s` (the formula goes
    /// non-positive when `M < C/2`, where one should checkpoint
    /// continuously).
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_s` or `cost_s` is not positive.
    pub fn daly(mtbf_s: f64, cost_s: f64, restart_s: f64) -> Self {
        assert!(mtbf_s > 0.0, "MTBF must be positive");
        assert!(cost_s > 0.0, "checkpoint cost must be positive");
        let interval = ((2.0 * cost_s * mtbf_s).sqrt() - cost_s).max(cost_s);
        CheckpointPolicy::every(interval, cost_s, restart_s)
    }

    /// Does this policy ever checkpoint?
    pub(crate) fn checkpoints(&self) -> bool {
        self.interval_s.is_finite()
    }
}

/// Daly's first-order optimal interval `√(2·C·M) − C` as a bare
/// cadence, clamped below by `cost_s` — the form consumed by layers
/// that snapshot state but model no separate restart cost (e.g. the
/// serving tier's session-journal compaction).
///
/// # Panics
///
/// Panics if `mtbf_s` or `cost_s` is not positive.
pub fn daly_interval_s(mtbf_s: f64, cost_s: f64) -> f64 {
    CheckpointPolicy::daly(mtbf_s, cost_s, 0.0).interval_s
}

/// Wall-clock accounting of one run under faults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CheckpointRun {
    /// Productive work completed, seconds. Always equals the requested
    /// work once the run finishes.
    pub completed_work_s: f64,
    /// Work lost to crashes (progress past the last checkpoint),
    /// seconds.
    pub wasted_work_s: f64,
    /// Time spent writing checkpoints, seconds.
    pub checkpoint_overhead_s: f64,
    /// Time spent restarting after crashes, seconds.
    pub restart_overhead_s: f64,
    /// Number of crashes survived.
    pub restarts: usize,
    /// Total wall-clock time, seconds.
    pub wall_clock_s: f64,
}

impl CheckpointRun {
    /// Fraction of wall clock that was not productive work.
    pub fn overhead_fraction(&self) -> f64 {
        if self.wall_clock_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.completed_work_s / self.wall_clock_s
    }
}

/// Runs `work_s` seconds of work under `policy`, injecting the crashes
/// whose wall-clock times are produced by `crashes_between(t0, t1)` —
/// typically a closure over
/// [`FaultSchedule::any_crash_between`](antarex_sim::faults::FaultSchedule::any_crash_between)
/// for coordinated (all-nodes) checkpointing. Only the first crash in
/// each queried window matters; the run restarts and re-queries from
/// the restart time.
///
/// Progress is saved at every checkpoint boundary; a crash loses
/// everything after the last completed checkpoint (or everything, if
/// the policy never checkpoints). The returned [`CheckpointRun`] always
/// has `completed_work_s == work_s`: completed (checkpointed) work is
/// never lost, no matter how the crashes fall.
///
/// # Panics
///
/// Panics if `work_s` is not positive and finite, or if the crash
/// source keeps crashing the run forever (more than 100 000 restarts —
/// an MTBF far below the checkpoint cost, which no interval survives).
pub fn run_to_completion(
    work_s: f64,
    policy: CheckpointPolicy,
    mut crashes_between: impl FnMut(f64, f64) -> Option<f64>,
) -> CheckpointRun {
    assert!(
        work_s > 0.0 && work_s.is_finite(),
        "work must be positive and finite"
    );
    let mut run = CheckpointRun::default();
    let mut saved_work_s = 0.0; // work safely checkpointed
    let mut clock = 0.0; // wall-clock now
    while saved_work_s < work_s {
        // next segment: up to one checkpoint interval, or to the end
        let segment = (work_s - saved_work_s).min(policy.interval_s);
        let is_final = saved_work_s + segment >= work_s;
        // final segment needs no checkpoint write after it
        let ckpt_cost = if is_final || !policy.checkpoints() {
            0.0
        } else {
            policy.cost_s
        };
        let segment_end = clock + segment + ckpt_cost;
        match crashes_between(clock, segment_end) {
            Some(crash_at) => {
                // lose progress since the last checkpoint
                let progressed = (crash_at - clock).min(segment);
                run.wasted_work_s += progressed;
                // partial checkpoint writes are wasted overhead too
                run.checkpoint_overhead_s += (crash_at - clock - progressed).max(0.0);
                run.restarts += 1;
                run.restart_overhead_s += policy.restart_s;
                clock = crash_at + policy.restart_s;
                if !policy.checkpoints() {
                    // restart from zero: all prior "saved" work is gone
                    run.wasted_work_s += saved_work_s;
                    saved_work_s = 0.0;
                }
                assert!(
                    run.restarts <= 100_000,
                    "crash rate too high for this policy to ever finish"
                );
            }
            None => {
                saved_work_s += segment;
                run.checkpoint_overhead_s += ckpt_cost;
                clock = segment_end;
            }
        }
    }
    run.completed_work_s = work_s;
    run.wall_clock_s = clock;
    run
}

/// Adapts a sorted crash-time list (e.g. from
/// [`FaultSchedule::any_crash_between`](antarex_sim::faults::FaultSchedule::any_crash_between)
/// over the whole horizon) into the `crashes_between` closure shape,
/// treating times past the list's end as crash-free.
pub fn crash_source(crash_times: Vec<f64>) -> impl FnMut(f64, f64) -> Option<f64> {
    move |from, to| crash_times.iter().copied().find(|&t| t >= from && t < to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_is_work_plus_checkpoints() {
        let policy = CheckpointPolicy::every(100.0, 2.0, 10.0);
        let run = run_to_completion(1000.0, policy, |_, _| None);
        assert_eq!(run.completed_work_s, 1000.0);
        assert_eq!(run.wasted_work_s, 0.0);
        assert_eq!(run.restarts, 0);
        // 10 segments, final one unwritten: 9 checkpoints
        assert_eq!(run.checkpoint_overhead_s, 18.0);
        assert_eq!(run.wall_clock_s, 1018.0);
    }

    #[test]
    fn no_checkpoint_policy_has_zero_overhead_without_faults() {
        let run = run_to_completion(500.0, CheckpointPolicy::none(10.0), |_, _| None);
        assert_eq!(run.wall_clock_s, 500.0);
        assert_eq!(run.overhead_fraction(), 0.0);
    }

    #[test]
    fn crash_loses_only_uncheckpointed_work() {
        let policy = CheckpointPolicy::every(100.0, 0.0, 5.0);
        // one crash at t=250: 50 s past the checkpoint at t=200
        let run = run_to_completion(1000.0, policy, crash_source(vec![250.0]));
        assert_eq!(run.completed_work_s, 1000.0);
        assert_eq!(run.wasted_work_s, 50.0);
        assert_eq!(run.restarts, 1);
        assert_eq!(run.wall_clock_s, 1000.0 + 50.0 + 5.0);
    }

    #[test]
    fn restart_from_zero_loses_everything() {
        let policy = CheckpointPolicy::none(5.0);
        let run = run_to_completion(300.0, policy, crash_source(vec![250.0]));
        // lost the full 250 s of progress, then reran the whole job
        assert_eq!(run.wasted_work_s, 250.0);
        assert_eq!(run.wall_clock_s, 250.0 + 5.0 + 300.0);
    }

    #[test]
    fn checkpointing_beats_restart_from_zero_under_faults() {
        let crashes = vec![400.0, 900.0, 1400.0, 2100.0, 2900.0];
        let with = run_to_completion(
            2000.0,
            CheckpointPolicy::every(100.0, 1.0, 5.0),
            crash_source(crashes.clone()),
        );
        let without = run_to_completion(2000.0, CheckpointPolicy::none(5.0), crash_source(crashes));
        assert!(with.wasted_work_s < without.wasted_work_s);
        assert!(with.wall_clock_s < without.wall_clock_s);
    }

    #[test]
    fn completed_work_never_lost() {
        // a crash during the checkpoint write itself must not lose the
        // preceding (already saved) segments
        let policy = CheckpointPolicy::every(100.0, 10.0, 2.0);
        // segment [0,100) + ckpt [100,110); crash mid-write at t=105
        let run = run_to_completion(200.0, policy, crash_source(vec![105.0]));
        assert_eq!(run.completed_work_s, 200.0);
        // crash at 105 falls in the first segment's window [0,110):
        // the 100 s of work in it are lost (write unfinished), plus 5 s
        // of partial checkpoint overhead
        assert_eq!(run.wasted_work_s, 100.0);
        assert!(run.wall_clock_s >= 200.0);
    }

    #[test]
    fn daly_interval_matches_formula() {
        let policy = CheckpointPolicy::daly(3600.0, 10.0, 30.0);
        let expected = (2.0f64 * 10.0 * 3600.0).sqrt() - 10.0;
        assert!((policy.interval_s - expected).abs() < 1e-9);
        // degenerate MTBF clamps to the cost floor rather than 0
        let tiny = CheckpointPolicy::daly(1.0, 10.0, 30.0);
        assert_eq!(tiny.interval_s, 10.0);
    }

    #[test]
    fn daly_near_optimal_on_poisson_crashes() {
        // deterministic pseudo-Poisson crash train with MTBF ~ 500 s
        let mtbf = 500.0;
        let mut crashes = Vec::new();
        let mut rng_state: u64 = 42;
        let mut t = 0.0;
        for _ in 0..400 {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (rng_state >> 11) as f64 / (1u64 << 53) as f64;
            t += -mtbf * (1.0 - u).max(f64::EPSILON).ln();
            crashes.push(t);
        }
        let cost = 5.0;
        let daly = CheckpointPolicy::daly(mtbf, cost, 10.0);
        let daly_run = run_to_completion(20_000.0, daly, crash_source(crashes.clone()));
        for interval in [10.0, 5000.0] {
            let other = CheckpointPolicy::every(interval, cost, 10.0);
            let run = run_to_completion(20_000.0, other, crash_source(crashes.clone()));
            assert!(
                daly_run.wall_clock_s <= run.wall_clock_s * 1.05,
                "daly ({:.0}s) lost to interval {interval}: {:.0} vs {:.0}",
                daly.interval_s,
                daly_run.wall_clock_s,
                run.wall_clock_s
            );
        }
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(0.0, 1.0, 1.0);
    }

    #[test]
    fn bare_cadence_matches_the_policy_interval() {
        assert_eq!(
            daly_interval_s(3600.0, 10.0),
            CheckpointPolicy::daly(3600.0, 10.0, 30.0).interval_s
        );
        // degenerate MTBF clamps to the cost floor
        assert_eq!(daly_interval_s(1.0, 10.0), 10.0);
    }
}
