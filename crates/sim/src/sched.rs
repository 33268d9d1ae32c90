//! Deterministic virtual schedulers for heavy-tailed task batches.
//!
//! The serving tier (and the docking use case, §VII-a of the paper)
//! replays batches of already-probed jobs onto *virtual* cores to derive
//! completion times and makespans. The replay is a pure sequential
//! function of the job costs, the placement estimates and the virtual
//! core count — never of the physical thread count — so every report
//! byte stays identical at 1/2/4/8 physical workers.
//!
//! Four policies are provided:
//!
//! * [`list_schedule`] — greedy earliest-free-core list placement in
//!   job-id order: [`list_place`], the one list-placement loop, with no
//!   fault timeline and hedging off. Given a [`FaultSchedule`] the same
//!   loop is the serving tier's chaos replay (retries, hedges,
//!   integrity failures, deadlines);
//! * [`block_schedule`] — contiguous block partitioning, the analogue of
//!   OpenMP `schedule(static)`: the strawman that a sorted heavy-tailed
//!   library defeats;
//! * [`lpt_schedule`] — longest-processing-time-first by *estimate*, the
//!   imbalance-aware placement fallback;
//! * [`steal_schedule`] — a deterministic work-stealing discrete-event
//!   simulation: guided decreasing-chunk initial deal, idle cores steal
//!   half of the victim's queue from the back, victims ordered by
//!   (remaining estimated load desc, core index asc) and stolen jobs by
//!   id — a fixed total order, so the schedule is reproducible bit for
//!   bit.
//!
//! Placement decisions (victim choice, LPT order, load accounting) use
//! the caller-supplied *estimates*; execution time accrues the *actual*
//! costs. This mirrors a real scheduler that only knows predictions up
//! front, while keeping the replay deterministic.

use crate::faults::FaultSchedule;
use std::collections::VecDeque;

/// Scheduling policy for a virtual batch replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SchedPolicy {
    /// Greedy earliest-finishing-core list scheduling in job-id order.
    #[default]
    Static,
    /// Contiguous block partitioning (OpenMP `schedule(static)` analogue).
    Block,
    /// Longest-processing-time-first placement by cost estimate.
    Lpt,
    /// Deterministic work stealing with a guided chunked initial deal.
    WorkSteal,
}

/// Counters describing how a schedule was produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Number of successful steal transactions.
    pub steals: u64,
    /// Failed steal probes: peers scanned during victim selection whose
    /// queue turned out to be empty.
    pub steal_fails: u64,
    /// Ids of jobs that migrated away from the core they were dealt to.
    pub stolen_jobs: Vec<usize>,
    /// Deepest per-core queue observed (after the initial deal and any
    /// steals).
    pub max_queue_depth: usize,
}

/// A fully-resolved virtual schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Virtual completion time of each job, in job-id order.
    pub completions: Vec<f64>,
    /// Virtual core each job executed on, in job-id order.
    pub assignments: Vec<usize>,
    /// Latest completion time (0.0 for an empty batch).
    pub makespan_s: f64,
    /// Steal/queue accounting for observability.
    pub stats: SchedStats,
}

impl Schedule {
    fn from_parts(completions: Vec<f64>, assignments: Vec<usize>, stats: SchedStats) -> Self {
        let makespan_s = completions.iter().fold(0.0, |a: f64, &b| a.max(b));
        Schedule {
            completions,
            assignments,
            makespan_s,
            stats,
        }
    }
}

/// Dispatch to the scheduler selected by `policy`.
///
/// `costs` are the observed per-job execution costs; `estimates` are the
/// predicted costs used for placement decisions (pass `costs` again for
/// a perfect estimator). Both slices must have equal length.
pub fn schedule(policy: SchedPolicy, costs: &[f64], estimates: &[f64], cores: usize) -> Schedule {
    assert_eq!(
        costs.len(),
        estimates.len(),
        "costs and estimates must align"
    );
    match policy {
        SchedPolicy::Static => list_schedule(costs, cores),
        SchedPolicy::Block => block_schedule(costs, cores),
        SchedPolicy::Lpt => lpt_schedule(costs, estimates, cores),
        SchedPolicy::WorkSteal => steal_schedule(costs, estimates, cores),
    }
}

/// Deadline, hedging, and retry budget of one list-placed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Virtual deadline budget per job, measured from its first
    /// dispatch; `f64::INFINITY` disables deadline enforcement.
    pub deadline_s: f64,
    /// A primary attempt still running this long after dispatch gets a
    /// hedge duplicate on another core; `f64::INFINITY` disables
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
    /// a crashed or corrupted attempt is simply a failed job.
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
    fn backoff_s(&self, attempt: u32) -> f64 {
        let factor = 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        (self.backoff_base_s * factor).min(self.backoff_cap_s)
    }
}

/// How a list-placed job ended.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fate {
    /// A verified result at this absolute virtual time.
    Done(f64),
    /// The deadline budget ran out.
    Deadline,
    /// The last attempt crashed or failed integrity on this core.
    Failed {
        /// The core of the failed attempt.
        worker: usize,
    },
    /// Every core was down with no repair before the timeline's horizon.
    #[default]
    NoLiveWorker,
}

/// One job's list placement: its fate, the core of its last attempt
/// (the winner's for [`Fate::Done`]) and what it took to get there.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlacedJob {
    /// How the job ended.
    pub fate: Fate,
    /// Core of the last attempt that ran (0 if none did).
    pub worker: usize,
    /// Failed attempts that were re-dispatched with backoff.
    pub retries: u32,
    /// Hedge duplicates dispatched against stragglers.
    pub hedges: u32,
    /// Attempts whose result failed the integrity check.
    pub corrupt_attempts: u32,
    /// Attempts that died with their core.
    pub crashed_attempts: u32,
}

/// Greedy earliest-finishing-core list schedule in job-id order.
///
/// Each job goes to the core with the smallest accumulated busy time
/// (ties break to the lowest core index) and costs are floored at zero:
/// [`list_place`] on a fault-free timeline with hedging off.
pub fn list_schedule(costs: &[f64], cores: usize) -> Schedule {
    let mut completions = Vec::with_capacity(costs.len());
    let mut assignments = Vec::with_capacity(costs.len());
    let no_hedge = HedgePolicy::disabled();
    let makespan_s = list_place(costs, &[], cores, 0.0, None, &no_hedge, |_, job| {
        // no timeline, no corrupt mask, no deadline: every job is done
        let Fate::Done(t) = job.fate else {
            unreachable!("fault-free list placement failed a job")
        };
        completions.push(t);
        assignments.push(job.worker);
    });
    Schedule {
        completions,
        assignments,
        makespan_s,
        stats: SchedStats::default(),
    }
}

/// List placement: the one loop behind [`list_schedule`] and the
/// serving tier's chaos replay.
///
/// Jobs are placed in id order from virtual time `start_s` onto
/// `workers` cores, each on the core that is free (and, under `faults`,
/// alive) earliest, lowest index on ties; costs are floored at zero.
/// Core *w* is fault-timeline node *w*:
///
/// * an attempt whose core crashes mid-run fails at the crash instant
///   and is **retried** after a capped exponential backoff;
/// * a primary still running [`HedgePolicy::hedge_after_s`] after
///   dispatch (a gray straggler) is **hedged** on another core; the
///   first finisher wins, the loser is cancelled at the winning instant;
/// * a result finished inside a corruption window, or of a job marked
///   in `always_corrupt` (missing entries read `false`), fails
///   integrity and burns a retry;
/// * each job has a **deadline budget** from its first dispatch.
///
/// Each job's placement is handed to `placed(id, job)` in id order, so
/// the loop allocates nothing per job. Returns the makespan: the latest
/// busy instant over all cores, relative to `start_s`.
pub fn list_place(
    costs: &[f64],
    always_corrupt: &[bool],
    workers: usize,
    start_s: f64,
    faults: Option<&FaultSchedule>,
    hedge: &HedgePolicy,
    mut placed: impl FnMut(usize, PlacedJob),
) -> f64 {
    let mut busy = vec![start_s; workers.max(1)];
    for (id, &cost) in costs.iter().enumerate() {
        let corrupt = always_corrupt.get(id).copied().unwrap_or(false);
        placed(
            id,
            place_job(&mut busy, cost.max(0.0), corrupt, start_s, faults, hedge),
        );
    }
    busy.iter().fold(start_s, |acc, &t| acc.max(t)) - start_s
}

/// One scheduled attempt of a job on a virtual core.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attempt {
    /// The attempt completed (integrity still unchecked) at the time.
    Finished(f64),
    /// The core crashed mid-run at the time.
    Crashed(f64),
}

impl Attempt {
    fn end(self) -> f64 {
        match self {
            Attempt::Finished(t) | Attempt::Crashed(t) => t,
        }
    }
}

/// Places one job of [`list_place`] on cores busy until `busy[w]`:
/// attempts, hedges and retries until it succeeds, fails for good or
/// runs out of deadline.
fn place_job(
    busy: &mut [f64],
    cost: f64,
    always_corrupt: bool,
    start_s: f64,
    faults: Option<&FaultSchedule>,
    hedge: &HedgePolicy,
) -> PlacedJob {
    let mut job = PlacedJob::default();
    let mut not_before = start_s;
    let mut first_dispatch: Option<f64> = None;
    for attempt in 0..=hedge.max_retries {
        let Some((worker, start)) = pick_worker(busy, not_before, faults, None) else {
            // every core is down with no repair in sight
            job.fate = Fate::NoLiveWorker;
            return job;
        };
        let deadline = *first_dispatch.get_or_insert(start) + hedge.deadline_s;
        if start > deadline {
            job.fate = Fate::Deadline;
            return job;
        }
        let primary = run_attempt(worker, start, cost, faults);
        // hedge a straggling primary on a different live core
        let mut duplicate: Option<(usize, Attempt)> = None;
        let hedge_at = start + hedge.hedge_after_s;
        if primary.end() > hedge_at {
            if let Some((w, t)) = pick_worker(busy, hedge_at, faults, Some(worker)) {
                if t <= deadline {
                    job.hedges += 1;
                    duplicate = Some((w, run_attempt(w, t, cost, faults)));
                }
            }
        }
        let replicas = || std::iter::once((worker, primary)).chain(duplicate);

        // first *successful* finisher wins; crashes only count when
        // both replicas crash
        let winner = replicas()
            .filter_map(|(w, attempt)| match attempt {
                Attempt::Finished(t) => Some((w, t)),
                Attempt::Crashed(_) => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (fail_worker, fail_t) = match winner {
            Some((win_worker, win_t)) => {
                // occupy both cores up to the decisive instant; the
                // losing replica is cancelled at the win
                for (w, attempt) in replicas() {
                    busy[w] = busy[w].max(attempt.end().min(win_t));
                    if matches!(attempt, Attempt::Crashed(t) if t <= win_t) {
                        job.crashed_attempts += 1;
                    }
                }
                job.worker = win_worker;
                if !(always_corrupt || faults.is_some_and(|f| f.corrupted(win_worker, win_t))) {
                    job.fate = if win_t > deadline {
                        Fate::Deadline
                    } else {
                        Fate::Done(win_t)
                    };
                    return job;
                }
                // the end-to-end checksum catches the bit flip: the
                // result is quarantined, the attempt has failed
                job.corrupt_attempts += 1;
                (win_worker, win_t)
            }
            None => {
                // every replica crashed: cores are blocked until their
                // crash instants
                let mut last = (worker, start);
                for (w, attempt) in replicas() {
                    if let Attempt::Crashed(t) = attempt {
                        busy[w] = busy[w].max(t);
                        job.crashed_attempts += 1;
                        if t >= last.1 {
                            last = (w, t);
                        }
                    }
                }
                last
            }
        };
        if fail_t > deadline {
            job.fate = Fate::Deadline;
            return job;
        }
        job.worker = fail_worker;
        job.fate = Fate::Failed {
            worker: fail_worker,
        };
        if attempt == hedge.max_retries {
            break;
        }
        // retry after backoff
        job.retries += 1;
        not_before = fail_t + hedge.backoff_s(attempt + 1);
    }
    job
}

/// The earliest (core, dispatch time) at or after `not_before` whose
/// core is alive at dispatch, lowest index on ties; `exclude` is
/// skipped (hedge placement). Dead cores become eligible again at their
/// repair instant. Returns `None` when no core is ever alive again
/// within the timeline's horizon.
fn pick_worker(
    busy_until: &[f64],
    not_before: f64,
    faults: Option<&FaultSchedule>,
    exclude: Option<usize>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (worker, &busy) in busy_until.iter().enumerate() {
        if exclude == Some(worker) {
            continue;
        }
        let mut ready = busy.max(not_before);
        if let Some(faults) = faults.filter(|f| !f.node_alive(worker, ready)) {
            // wait for the repair: the next instant the core is alive
            match faults.next_repair_after(worker, ready) {
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

/// Runs one attempt on a virtual core: the cost is stretched by the
/// core's gray slowdown at dispatch, and a crash inside the execution
/// window kills the attempt at the crash instant.
fn run_attempt(worker: usize, start: f64, cost: f64, faults: Option<&FaultSchedule>) -> Attempt {
    let Some(faults) = faults else {
        return Attempt::Finished(start + cost);
    };
    let end = start + cost * faults.slowdown(worker, start).max(1.0);
    match faults.first_crash_in(worker, start, end) {
        Some(crash) => Attempt::Crashed(crash),
        None => Attempt::Finished(end),
    }
}

/// Contiguous block partition: job `i` of `n` runs on core
/// `i * cores / n`, jobs within a block run in id order.
pub fn block_schedule(costs: &[f64], cores: usize) -> Schedule {
    let cores = cores.max(1);
    let n = costs.len();
    let assignments = (0..n)
        .map(|i| (i * cores / n.max(1)).min(cores - 1))
        .collect();
    run_in_id_order(costs, assignments, cores)
}

/// Longest-processing-time-first placement by estimate.
///
/// Jobs are placed in decreasing-estimate order (ties break to the lower
/// job id) onto the core with the least *estimated* accumulated load
/// (ties to the lowest core index); each core then executes its jobs in
/// id order and completion times accrue the actual costs.
pub fn lpt_schedule(costs: &[f64], estimates: &[f64], cores: usize) -> Schedule {
    let cores = cores.max(1);
    let n = costs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| estimates[b].total_cmp(&estimates[a]).then(a.cmp(&b)));
    let mut est_load = vec![0.0f64; cores];
    let mut assignments = vec![0usize; n];
    for &job in &order {
        let core = est_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        est_load[core] += estimates[job].max(0.0);
        assignments[job] = core;
    }
    run_in_id_order(costs, assignments, cores)
}

/// Executes a fixed assignment: every core runs its jobs back to back
/// in ascending id order, each cost floored at zero.
fn run_in_id_order(costs: &[f64], assignments: Vec<usize>, cores: usize) -> Schedule {
    let mut busy_until = vec![0.0f64; cores];
    let completions = costs
        .iter()
        .zip(&assignments)
        .map(|(&cost, &core)| {
            busy_until[core] += cost.max(0.0);
            busy_until[core]
        })
        .collect();
    Schedule::from_parts(completions, assignments, SchedStats::default())
}

/// Smallest chunk a guided deal or a steal will move as one unit.
const MIN_CHUNK: usize = 1;

/// Deterministic work-stealing schedule.
///
/// The batch is dealt to the cores round-robin in guided decreasing
/// chunks (`remaining / (2 * cores)`, floored at one job), then a
/// sequential discrete-event simulation replays execution: the core with
/// the earliest virtual clock (ties to the lowest index) pops the front
/// of its own queue; an idle core steals the back half of the queue of
/// the victim with the largest remaining *estimated* load (ties to the
/// lowest victim index; stolen jobs keep ascending id order). The
/// ordering is total, so the schedule is a pure function of
/// `(costs, estimates, cores)`.
pub fn steal_schedule(costs: &[f64], estimates: &[f64], cores: usize) -> Schedule {
    let cores = cores.max(1);
    let n = costs.len();
    let mut stats = SchedStats::default();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); cores];
    let mut est_remaining = vec![0.0f64; cores];

    // Guided decreasing-chunk deal in job-id order.
    let mut next = 0usize;
    let mut core = 0usize;
    while next < n {
        let remaining = n - next;
        let chunk = (remaining / (2 * cores)).max(MIN_CHUNK).min(remaining);
        for (job, est) in estimates.iter().enumerate().skip(next).take(chunk) {
            queues[core].push_back(job);
            est_remaining[core] += est.max(0.0);
        }
        next += chunk;
        core = (core + 1) % cores;
    }
    stats.max_queue_depth = queues.iter().map(VecDeque::len).max().unwrap_or(0);

    let mut now = vec![0.0f64; cores];
    let mut live = vec![true; cores];
    let mut completions = vec![0.0f64; n];
    let mut assignments = vec![0usize; n];
    let mut done = 0usize;
    while done < n {
        // Earliest virtual clock among live cores; ties to lowest index.
        let c = (0..cores)
            .filter(|&c| live[c])
            .min_by(|&a, &b| now[a].total_cmp(&now[b]).then(a.cmp(&b)))
            .expect("jobs remain, so a live core must too");
        if let Some(job) = queues[c].pop_front() {
            est_remaining[c] -= estimates[job].max(0.0);
            completions[job] = now[c] + costs[job].max(0.0);
            assignments[job] = c;
            now[c] = completions[job];
            done += 1;
            continue;
        }
        // Steal: victim with the largest remaining estimated load,
        // ties to the lowest victim index. Empty peers probed along the
        // way count as failed steal probes.
        let victim = (0..cores)
            .filter(|&v| {
                if v == c {
                    return false;
                }
                if queues[v].is_empty() {
                    stats.steal_fails += 1;
                    return false;
                }
                true
            })
            .max_by(|&a, &b| {
                est_remaining[a]
                    .total_cmp(&est_remaining[b])
                    .then(b.cmp(&a))
            });
        match victim {
            Some(v) => {
                let take = queues[v].len().div_ceil(2).max(MIN_CHUNK);
                let at = queues[v].len() - take;
                let mut stolen: Vec<usize> = queues[v].split_off(at).into();
                // A queue that has itself stolen before may not be
                // ascending across chunk boundaries; sorting the stolen
                // chunk by job id keeps the order total.
                stolen.sort_unstable();
                for &job in &stolen {
                    let est = estimates[job].max(0.0);
                    est_remaining[v] -= est;
                    est_remaining[c] += est;
                    queues[c].push_back(job);
                }
                stats.steals += 1;
                stats.stolen_jobs.extend(stolen);
                stats.max_queue_depth = stats.max_queue_depth.max(queues[c].len());
            }
            None => {
                stats.steal_fails += 1;
                live[c] = false;
            }
        }
    }
    Schedule::from_parts(completions, assignments, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ALL: [SchedPolicy; 4] = [
        SchedPolicy::Static,
        SchedPolicy::Block,
        SchedPolicy::Lpt,
        SchedPolicy::WorkSteal,
    ];

    fn heavy_tailed(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| crate::workload::lognormal(&mut rng, 0.0, 0.8))
            .collect()
    }

    fn assert_valid(schedule: &Schedule, costs: &[f64], cores: usize) {
        assert_eq!(schedule.completions.len(), costs.len());
        assert_eq!(schedule.assignments.len(), costs.len());
        let total: f64 = costs.iter().map(|c| c.max(0.0)).sum();
        let lower = total / cores.max(1) as f64;
        assert!(schedule.makespan_s >= lower - 1e-9, "below the work bound");
        // Replaying each core's jobs in completion order must reproduce
        // the completion times exactly: no overlap, no gaps within a
        // core's run queue beyond idle-before-steal.
        for core in 0..cores.max(1) {
            let mut jobs: Vec<usize> = (0..costs.len())
                .filter(|&j| schedule.assignments[j] == core)
                .collect();
            jobs.sort_by(|&a, &b| schedule.completions[a].total_cmp(&schedule.completions[b]));
            let mut clock = 0.0f64;
            for &j in &jobs {
                let start = schedule.completions[j] - costs[j].max(0.0);
                assert!(start >= clock - 1e-9, "core {core} overlaps job {j}");
                clock = schedule.completions[j];
            }
        }
    }

    #[test]
    fn static_list_matches_legacy_shape() {
        let costs = vec![1.0, 1.0, 1.0, 1.0];
        let s = list_schedule(&costs, 2);
        assert_eq!(s.completions, vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(s.makespan_s, 2.0);
        // unequal costs: core 0 runs 4+1, core 1 runs 3+2
        let costs = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(list_schedule(&costs, 1).makespan_s, 10.0);
        assert_eq!(list_schedule(&costs, 2).makespan_s, 5.0);
        assert_eq!(list_schedule(&costs, 4).makespan_s, 4.0);
        assert_eq!(list_schedule(&[], 3).makespan_s, 0.0);
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let costs = heavy_tailed(7, 500);
        for &cores in &[1usize, 2, 4, 8] {
            for policy in ALL {
                let s = schedule(policy, &costs, &costs, cores);
                assert_valid(&s, &costs, cores);
            }
        }
    }

    #[test]
    fn single_core_is_the_sequential_prefix_sum() {
        let costs = heavy_tailed(11, 64);
        let mut acc = 0.0;
        let expect: Vec<f64> = costs
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect();
        for policy in ALL {
            let s = schedule(policy, &costs, &costs, 1);
            if policy == SchedPolicy::Lpt {
                // LPT reorders; only the makespan matches sequentially.
                assert!((s.makespan_s - acc).abs() < 1e-9);
            } else {
                for (got, want) in s.completions.iter().zip(&expect) {
                    assert!((got - want).abs() < 1e-9);
                }
            }
        }
    }

    /// Independent naive re-implementation of the stealing simulation,
    /// used as the reference the production code must match exactly.
    fn reference_steal(costs: &[f64], estimates: &[f64], cores: usize) -> Vec<f64> {
        let cores = cores.max(1);
        let n = costs.len();
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); cores];
        let mut next = 0usize;
        let mut core = 0usize;
        while next < n {
            let chunk = ((n - next) / (2 * cores)).max(1).min(n - next);
            queues[core].extend(next..next + chunk);
            next += chunk;
            core = (core + 1) % cores;
        }
        let mut now = vec![0.0f64; cores];
        let mut live = vec![true; cores];
        let mut completions = vec![0.0f64; n];
        let mut done = 0;
        while done < n {
            let mut c = usize::MAX;
            for cand in 0..cores {
                if live[cand] && (c == usize::MAX || now[cand] < now[c]) {
                    c = cand;
                }
            }
            if queues[c].is_empty() {
                let load = |v: usize| {
                    queues[v]
                        .iter()
                        .map(|&j| estimates[j].max(0.0))
                        .sum::<f64>()
                };
                let mut victim = None;
                for (v, queue) in queues.iter().enumerate() {
                    if v == c || queue.is_empty() {
                        continue;
                    }
                    victim = match victim {
                        None => Some(v),
                        Some(best) if load(v) > load(best) => Some(v),
                        other => other,
                    };
                }
                match victim {
                    None => live[c] = false,
                    Some(v) => {
                        let take = queues[v].len().div_ceil(2);
                        let at = queues[v].len() - take;
                        let mut stolen = queues[v].split_off(at);
                        stolen.sort_unstable();
                        queues[c].extend(stolen);
                    }
                }
            } else {
                let job = queues[c].remove(0);
                completions[job] = now[c] + costs[job].max(0.0);
                now[c] = completions[job];
                done += 1;
            }
        }
        completions
    }

    #[test]
    fn stealing_matches_the_reference_simulation() {
        for seed in 0..8u64 {
            let costs = heavy_tailed(100 + seed, 257);
            for &cores in &[2usize, 3, 4, 8] {
                let s = steal_schedule(&costs, &costs, cores);
                let reference = reference_steal(&costs, &costs, cores);
                assert_eq!(s.completions, reference, "seed {seed} cores {cores}");
            }
        }
    }

    #[test]
    fn steal_order_is_total_under_cost_ties() {
        // All-equal estimates force every (load, index) tie-break path.
        let costs = vec![1.0; 97];
        let a = steal_schedule(&costs, &costs, 4);
        let b = steal_schedule(&costs, &costs, 4);
        assert_eq!(a, b);
        // With equal loads the victim must be the lowest-indexed
        // non-empty queue: verify against the naive reference.
        assert_eq!(a.completions, reference_steal(&costs, &costs, 4));
        assert!(a.stats.steals > 0, "uniform tail still migrates work");
    }

    #[test]
    fn stealing_beats_block_on_a_sorted_heavy_tail() {
        let mut costs = heavy_tailed(42, 4096);
        costs.sort_by(|a, b| b.total_cmp(a));
        let block = block_schedule(&costs, 8);
        let steal = steal_schedule(&costs, &costs, 8);
        assert!(
            block.makespan_s > 1.3 * steal.makespan_s,
            "block {} vs steal {}",
            block.makespan_s,
            steal.makespan_s
        );
    }

    #[test]
    fn uniform_costs_keep_stealing_at_parity() {
        let costs = vec![1.0; 4096];
        let block = block_schedule(&costs, 8);
        let steal = steal_schedule(&costs, &costs, 8);
        assert!(steal.makespan_s <= 1.02 * block.makespan_s);
    }

    #[test]
    fn lpt_fixes_a_sorted_ascending_tail() {
        let costs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let list = list_schedule(&costs, 4);
        let lpt = lpt_schedule(&costs, &costs, 4);
        assert!(lpt.makespan_s <= list.makespan_s + 1e-9);
    }

    #[test]
    fn empty_batch_is_fine() {
        for policy in ALL {
            let s = schedule(policy, &[], &[], 4);
            assert!(s.completions.is_empty());
            assert_eq!(s.makespan_s, 0.0);
        }
    }

    #[test]
    fn stats_account_for_migrations() {
        let mut costs = heavy_tailed(5, 1000);
        costs.sort_by(|a, b| b.total_cmp(a));
        let s = steal_schedule(&costs, &costs, 8);
        assert!(s.stats.steals > 0);
        // Late in the drain most peers are empty, so victim scans must
        // have probed at least one empty queue.
        assert!(s.stats.steal_fails >= 1);
        assert!(!s.stats.stolen_jobs.is_empty());
        assert!(s.stats.max_queue_depth > 0);
    }

    /// The list-schedule loop [`list_place`] replaced, kept as the
    /// oracle `list_schedule` must match bit for bit.
    fn reference_list(costs: &[f64], cores: usize) -> Schedule {
        let mut busy_until = vec![0.0f64; cores.max(1)];
        let mut assignments = Vec::with_capacity(costs.len());
        let completions = costs
            .iter()
            .map(|&cost| {
                let core = busy_until
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                busy_until[core] += cost.max(0.0);
                assignments.push(core);
                busy_until[core]
            })
            .collect();
        Schedule::from_parts(completions, assignments, SchedStats::default())
    }

    #[test]
    fn list_schedule_matches_the_reference_loop_bit_for_bit() {
        let bits =
            |s: &Schedule| -> Vec<u64> { s.completions.iter().map(|c| c.to_bits()).collect() };
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let mut costs = heavy_tailed(seed, 1 + (seed as usize % 97));
            for cost in costs.iter_mut() {
                *cost = [0.0, -1.0, f64::NAN]
                    .get(rng.gen_range(0..10usize))
                    .copied()
                    .unwrap_or(*cost);
            }
            for cores in [1usize, 2, 3, 4, 8] {
                let (got, want) = (list_schedule(&costs, cores), reference_list(&costs, cores));
                assert_eq!(bits(&got), bits(&want), "seed {seed} cores {cores}");
                assert_eq!(got.assignments, want.assignments);
                assert_eq!(got.makespan_s.to_bits(), want.makespan_s.to_bits());
            }
        }
    }

    /// [`list_place`] on `faults`, its placements collected.
    fn place(
        costs: &[f64],
        corrupt: &[bool],
        workers: usize,
        start_s: f64,
        faults: &FaultSchedule,
        hedge: &HedgePolicy,
    ) -> (Vec<PlacedJob>, f64) {
        let mut jobs = Vec::new();
        let push = |_, job| jobs.push(job);
        let makespan = list_place(costs, corrupt, workers, start_s, Some(faults), hedge, push);
        (jobs, makespan)
    }

    fn done_at(job: &PlacedJob) -> f64 {
        match job.fate {
            Fate::Done(t) => t,
            other => panic!("job not done: {other:?}"),
        }
    }

    fn quiet_faults() -> FaultSchedule {
        FaultSchedule::generate(&FaultConfig::none(1), 4, 10_000.0)
    }

    /// A timeline with exactly one crash (repaired after 5 s) on the
    /// single core, found by scanning seeds — deterministic once the
    /// scan settles.
    fn one_crash_faults() -> FaultSchedule {
        for seed in 0..1000 {
            let mut config = FaultConfig::none(seed);
            config.node_mtbf_s = 30.0;
            config.weibull_shape = 1.0;
            config.repair_time_s = 5.0;
            let schedule = FaultSchedule::generate(&config, 1, 100.0);
            let crashes = schedule.any_crash_between(0.0, 100.0);
            if crashes.len() == 1 && crashes[0] < 40.0 {
                return schedule;
            }
        }
        panic!("no single-crash seed in scan range");
    }

    #[test]
    fn fault_free_chaos_matches_plain_list_schedule() {
        let hardened = HedgePolicy::hardened();
        let (jobs, makespan) = place(&[1.0; 6], &[false; 6], 2, 0.0, &quiet_faults(), &hardened);
        let completions: Vec<f64> = jobs.iter().map(done_at).collect();
        assert_eq!(completions, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert_eq!(makespan, 3.0);
        let counts = |j: &PlacedJob| (j.retries, j.hedges, j.corrupt_attempts, j.crashed_attempts);
        assert!(jobs.iter().all(|j| counts(j) == (0, 0, 0, 0)));
    }

    #[test]
    fn hardened_hedging_dispatches_duplicates_without_faults() {
        // costs above `hedge_after_s` are hedged on an idle core even on
        // a fault-free timeline: why list placement passes hedging off
        let hardened = HedgePolicy::hardened();
        let costs = [2.0 * hardened.hedge_after_s; 4];
        let (jobs, _) = place(&costs, &[], 2, 0.0, &quiet_faults(), &hardened);
        assert!(jobs.iter().map(|j| j.hedges).sum::<u32>() > 0);
        let hedged: Vec<f64> = jobs.iter().map(done_at).collect();
        assert_ne!(hedged, list_schedule(&costs, 2).completions);
    }

    #[test]
    fn crashed_attempt_retries_on_backoff_and_succeeds() {
        let faults = one_crash_faults();
        let first_crash = faults.any_crash_between(0.0, 100.0)[0];
        // a long job dispatched at t=0 straddles the crash
        let policy = HedgePolicy {
            deadline_s: f64::INFINITY,
            hedge_after_s: f64::INFINITY,
            ..HedgePolicy::hardened()
        };
        let (jobs, _) = place(&[first_crash + 1.0], &[false], 1, 0.0, &faults, &policy);
        assert!(
            matches!(jobs[0].fate, Fate::Done(_)),
            "retry after repair must succeed"
        );
        assert_eq!(jobs[0].retries, 1);
        assert_eq!(jobs[0].crashed_attempts, 1);
        // the retry waited for the repair (crash + 5 s)
        assert!(done_at(&jobs[0]) > first_crash + 5.0);
    }

    #[test]
    fn unhardened_policy_drops_the_crashed_job() {
        let faults = one_crash_faults();
        let first_crash = faults.any_crash_between(0.0, 100.0)[0];
        let disabled = HedgePolicy::disabled();
        let (jobs, _) = place(&[first_crash + 1.0], &[false], 1, 0.0, &faults, &disabled);
        assert!(matches!(jobs[0].fate, Fate::Failed { .. }));
    }

    #[test]
    fn straggler_is_hedged_and_the_fast_replica_wins() {
        // the timeline is generated for ONE node, so only core 0 has
        // gray windows; core 1 of the two-core pool is fault-free
        let mut config = FaultConfig::none(3);
        config.gray_mtbf_s = 4.0;
        config.gray_slowdown = 10.0;
        config.gray_duration_s = 5_000.0;
        let faults = FaultSchedule::generate(&config, 1, 10_000.0);
        let gray_start = (0..10_000)
            .map(f64::from)
            .find(|&t| faults.slowdown(0, t) > 1.0)
            .expect("gray window on node 0");
        let policy = HedgePolicy {
            hedge_after_s: 0.5,
            ..HedgePolicy::hardened()
        };
        let (jobs, _) = place(&[2.0], &[false], 2, gray_start, &faults, &policy);
        let done = done_at(&jobs[0]);
        assert_eq!(jobs[0].hedges, 1, "slowed primary must be hedged");
        // winner is the healthy hedge: dispatched 0.5 s in, runs 2 s,
        // while the gray primary would have taken 20 s
        assert!(
            done < gray_start + 20.0,
            "hedge must beat the 10x straggler: {done}"
        );
    }

    #[test]
    fn poisoned_job_exhausts_retries_and_fails() {
        let policy = HedgePolicy::hardened();
        let (jobs, _) = place(&[1.0], &[true], 2, 0.0, &quiet_faults(), &policy);
        assert!(matches!(jobs[0].fate, Fate::Failed { .. }));
        assert_eq!(jobs[0].retries, policy.max_retries);
        assert_eq!(jobs[0].corrupt_attempts, policy.max_retries + 1);
    }

    #[test]
    fn deadline_budget_is_enforced() {
        let policy = HedgePolicy {
            deadline_s: 0.5,
            hedge_after_s: f64::INFINITY,
            ..HedgePolicy::hardened()
        };
        let (jobs, _) = place(&[2.0], &[false], 2, 0.0, &quiet_faults(), &policy);
        assert_eq!(jobs[0].fate, Fate::Deadline);
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
    fn fault_aware_placement_is_deterministic() {
        let faults = one_crash_faults();
        let costs: Vec<f64> = (0..8).map(|i| 0.5 + 0.25 * i as f64).collect();
        let run = || {
            place(
                &costs,
                &[false; 8],
                1,
                0.0,
                &faults,
                &HedgePolicy::hardened(),
            )
        };
        assert_eq!(run(), run());
    }
}
