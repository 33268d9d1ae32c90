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
//! * [`list_schedule`] — greedy earliest-finishing-core list scheduling
//!   in job-id order (the legacy `serve::pool` schedule, kept
//!   byte-identical);
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

impl SchedPolicy {
    /// How aggressively the policy rebalances; mixed batches resolve to
    /// the most dynamic policy among their tenant classes.
    pub fn dynamism(&self) -> u8 {
        match self {
            SchedPolicy::Static => 0,
            SchedPolicy::Block => 1,
            SchedPolicy::Lpt => 2,
            SchedPolicy::WorkSteal => 3,
        }
    }
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

/// Greedy earliest-finishing-core list schedule in job-id order.
///
/// Byte-identical to the legacy `serve::pool` virtual schedule: each job
/// goes to the core with the smallest accumulated busy time (ties break
/// to the lowest core index) and costs are floored at zero.
pub fn list_schedule(costs: &[f64], cores: usize) -> Schedule {
    let cores = cores.max(1);
    let mut busy_until = vec![0.0f64; cores];
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

/// Contiguous block partition: job `i` of `n` runs on core
/// `i * cores / n`, jobs within a block run in id order.
pub fn block_schedule(costs: &[f64], cores: usize) -> Schedule {
    let cores = cores.max(1);
    let n = costs.len();
    let mut busy_until = vec![0.0f64; cores];
    let mut assignments = Vec::with_capacity(n);
    let completions = costs
        .iter()
        .enumerate()
        .map(|(i, &cost)| {
            let core = (i * cores / n.max(1)).min(cores - 1);
            busy_until[core] += cost.max(0.0);
            assignments.push(core);
            busy_until[core]
        })
        .collect();
    Schedule::from_parts(completions, assignments, SchedStats::default())
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
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); cores];
    for &job in &order {
        let core = est_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        est_load[core] += estimates[job].max(0.0);
        queues[core].push(job);
    }
    let mut completions = vec![0.0f64; n];
    let mut assignments = vec![0usize; n];
    for (core, queue) in queues.iter_mut().enumerate() {
        queue.sort_unstable();
        let mut now = 0.0f64;
        for &job in queue.iter() {
            now += costs[job].max(0.0);
            completions[job] = now;
            assignments[job] = core;
        }
    }
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            for policy in [
                SchedPolicy::Static,
                SchedPolicy::Block,
                SchedPolicy::Lpt,
                SchedPolicy::WorkSteal,
            ] {
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
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::Block,
            SchedPolicy::Lpt,
            SchedPolicy::WorkSteal,
        ] {
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
        for policy in [
            SchedPolicy::Static,
            SchedPolicy::Block,
            SchedPolicy::Lpt,
            SchedPolicy::WorkSteal,
        ] {
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
}
