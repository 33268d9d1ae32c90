//! Replaying a batch schedule on the simulated cluster.
//!
//! [`BatchScheduler`](crate::scheduler::BatchScheduler) plans against
//! runtime *estimates*; replay executes the plan on real
//! [`Node`] models — heterogeneous process
//! corners, DVFS states, thermal trajectories — and accounts wall-clock
//! and energy. This closes the loop between the cluster-level dispatching
//! knob and the node-level physics, and powers the scheduler-energy
//! comparisons.

use crate::scheduler::Schedule;
use antarex_sim::job::Job;
use antarex_sim::node::Node;
use std::collections::VecDeque;

/// Result of replaying one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Wall-clock completion of the last job, seconds.
    pub makespan_s: f64,
    /// Total IT energy over the replay (busy + idle), joules.
    pub energy_j: f64,
    /// Mean node utilization over the makespan (busy time / total time).
    pub utilization: f64,
    /// Per-job actual runtimes, in job order.
    pub job_runtimes_s: Vec<f64>,
}

/// Replays `schedule` for `jobs` on the node pool.
///
/// Node assignment is by availability at each placement's start time (the
/// schedule fixes *when*, the replay fixes *where*). Each assigned node
/// executes the job's per-node work at its current P-state; idle gaps are
/// charged idle power at the end.
///
/// # Panics
///
/// Panics if the pool is smaller than the schedule's peak node demand or
/// if a placement references an unknown job.
pub fn replay(schedule: &Schedule, jobs: &[Job], nodes: &mut [Node]) -> ReplayOutcome {
    // (start time, placement) in time order, FIFO among equal times: the
    // stable sort keeps placement order, a delayed start re-enters last
    let starts = schedule
        .placements
        .iter()
        .map(|placement| placement.start_s);
    let mut queue: VecDeque<(f64, usize)> = starts.zip(0..).collect();
    queue.make_contiguous().sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut node_free_at = vec![0.0f64; nodes.len()];
    let mut job_runtimes = vec![0.0f64; schedule.placements.len()];
    let mut makespan: f64 = 0.0;

    while let Some((time, index)) = queue.pop_front() {
        let placement = &schedule.placements[index];
        let job = jobs
            .iter()
            .find(|j| j.id == placement.job_id)
            .unwrap_or_else(|| panic!("job {} not found", placement.job_id));
        assert!(
            job.nodes <= nodes.len(),
            "pool exhausted at t={time}: wanted {} nodes",
            job.nodes
        );
        // pick the first `nodes` free at this time; if actual runtimes
        // overran the schedule's estimates, delay the start until enough
        // nodes free up (what a real resource manager does)
        let mut assigned = Vec::new();
        for (n, free_at) in node_free_at.iter().enumerate() {
            if *free_at <= time + 1e-9 {
                assigned.push(n);
                if assigned.len() == job.nodes {
                    break;
                }
            }
        }
        if assigned.len() < job.nodes {
            let mut free_times = node_free_at.clone();
            free_times.sort_by(f64::total_cmp);
            let ready_at = free_times[job.nodes - 1].max(time) + 1e-6;
            let behind = queue.partition_point(|&(due, _)| due <= ready_at);
            queue.insert(behind, (ready_at, index));
            continue;
        }
        let mut slowest = 0.0f64;
        for &n in &assigned {
            let outcome = nodes[n].execute(&job.work_per_node);
            slowest = slowest.max(outcome.time_s);
        }
        for &n in &assigned {
            node_free_at[n] = time + slowest;
        }
        job_runtimes[index] = slowest;
        makespan = makespan.max(time + slowest);
    }

    // idle accounting: every node idles for (makespan - busy)
    let mut energy = 0.0;
    let mut busy_total = 0.0;
    for node in nodes.iter_mut() {
        let busy = node.busy_s();
        busy_total += busy;
        let idle = (makespan - busy).max(0.0);
        if idle > 0.0 {
            node.idle(idle);
        }
        energy += node.energy_j();
    }
    let utilization = if makespan > 0.0 {
        busy_total / (makespan * nodes.len() as f64)
    } else {
        0.0
    };
    ReplayOutcome {
        makespan_s: makespan,
        energy_j: energy,
        utilization,
        job_runtimes_s: job_runtimes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{BatchScheduler, SchedulerPolicy};
    use antarex_sim::job::WorkUnit;
    use antarex_sim::node::NodeSpec;
    use antarex_sim::variability::ProcessVariation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0, 0.0, 2, WorkUnit::compute_bound(5e12)),
            Job::new(1, 1.0, 2, WorkUnit::compute_bound(5e12)),
            Job::new(2, 2.0, 4, WorkUnit::compute_bound(2e12)),
            Job::new(3, 3.0, 1, WorkUnit::memory_bound(5e11)),
        ]
    }

    fn pool(seed: u64) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..4)
            .map(|i| {
                Node::with_variation(
                    NodeSpec::cineca_xeon(),
                    i,
                    ProcessVariation::sample(&mut rng),
                )
            })
            .collect()
    }

    fn estimate(job: &Job) -> f64 {
        // crude user wall-time: compute-bound time at 2.0 GHz + margin
        job.work_per_node.flops / (192e9) * 1.3 + 10.0
    }

    /// The 4-node plan of `jobs` under `policy`.
    fn plan(policy: SchedulerPolicy, jobs: &[Job]) -> Schedule {
        BatchScheduler::new(4, policy)
            .schedule(jobs, estimate)
            .unwrap()
    }

    #[test]
    fn replay_executes_all_jobs_and_accounts_energy() {
        let jobs = jobs();
        let schedule = plan(SchedulerPolicy::EasyBackfill, &jobs);
        let mut nodes = pool(1);
        let outcome = replay(&schedule, &jobs, &mut nodes);
        assert_eq!(outcome.job_runtimes_s.len(), 4);
        assert!(outcome.job_runtimes_s.iter().all(|&t| t > 0.0));
        assert!(outcome.energy_j > 0.0);
        assert!(outcome.makespan_s > 0.0);
        assert!(outcome.utilization > 0.0 && outcome.utilization <= 1.0);
    }

    #[test]
    fn backfill_replay_beats_fifo_on_utilization() {
        let jobs = vec![
            Job::new(0, 0.0, 3, WorkUnit::compute_bound(5e12)),
            Job::new(1, 1.0, 4, WorkUnit::compute_bound(5e12)),
            Job::new(2, 2.0, 1, WorkUnit::compute_bound(5e12)),
        ];
        let fifo = plan(SchedulerPolicy::Fifo, &jobs);
        let easy = plan(SchedulerPolicy::EasyBackfill, &jobs);
        let fifo_outcome = replay(&fifo, &jobs, &mut pool(2));
        let easy_outcome = replay(&easy, &jobs, &mut pool(2));
        assert!(
            easy_outcome.makespan_s <= fifo_outcome.makespan_s + 1e-6,
            "easy {} vs fifo {}",
            easy_outcome.makespan_s,
            fifo_outcome.makespan_s
        );
        assert!(easy_outcome.utilization >= fifo_outcome.utilization - 1e-9);
    }

    #[test]
    fn downclocked_pool_trades_time_for_power() {
        let jobs = jobs();
        let schedule = plan(SchedulerPolicy::Fifo, &jobs);
        let mut fast_pool = pool(3);
        let fast = replay(&schedule, &jobs, &mut fast_pool);
        let mut slow_pool = pool(3);
        for node in slow_pool.iter_mut() {
            node.set_pstate(2);
        }
        let slow = replay(&schedule, &jobs, &mut slow_pool);
        assert!(slow.makespan_s > fast.makespan_s);
        let fast_power = fast.energy_j / fast.makespan_s;
        let slow_power = slow.energy_j / slow.makespan_s;
        assert!(
            slow_power < fast_power,
            "downclocking must cut average power"
        );
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn undersized_pool_panics() {
        let jobs = vec![Job::new(0, 0.0, 4, WorkUnit::compute_bound(1e12))];
        let schedule = plan(SchedulerPolicy::Fifo, &jobs);
        let mut nodes = pool(4);
        let mut small: Vec<Node> = nodes.drain(0..2).collect();
        replay(&schedule, &jobs, &mut small);
    }
}
