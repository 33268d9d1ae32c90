//! Batch scheduling: FIFO and EASY backfilling.
//!
//! The cluster-level "job dispatching" knob of §V. Jobs request node
//! counts; the scheduler assigns start times against a fixed node pool
//! using runtime estimates. EASY backfilling lets short narrow jobs jump
//! the queue when they cannot delay the first blocked job — the classic
//! utilization/energy win for irregular HPC workloads.

use crate::error::RtrmError;
use antarex_sim::job::Job;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Strict first-come-first-served.
    Fifo,
    /// FCFS with EASY backfilling (conservative single-reservation).
    EasyBackfill,
}

/// One scheduled job.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The job id.
    pub job_id: u64,
    /// Assigned start time, seconds.
    pub start_s: f64,
    /// Estimated end time, seconds.
    pub end_s: f64,
    /// Number of nodes held.
    pub nodes: usize,
}

/// Result of scheduling a job list.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Placements in start order.
    pub placements: Vec<Placement>,
    /// Completion time of the last job.
    pub makespan_s: f64,
    /// Mean waiting time (start − arrival).
    pub mean_wait_s: f64,
}

/// A batch scheduler over `total_nodes` identical nodes.
///
/// Runtime estimates are provided by the caller via `estimate`, mirroring
/// the user-supplied wall-time limits real schedulers rely on.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    total_nodes: usize,
    policy: SchedulerPolicy,
}

impl BatchScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `total_nodes` is zero.
    pub fn new(total_nodes: usize, policy: SchedulerPolicy) -> Self {
        assert!(total_nodes > 0, "cluster has no nodes");
        BatchScheduler {
            total_nodes,
            policy,
        }
    }

    /// Schedules `jobs` (must be sorted by arrival), with `estimate`
    /// giving each job's runtime in seconds.
    ///
    /// Returns `RtrmError::InvalidJob` for the first job whose
    /// estimate is negative or not finite, or that requests more nodes
    /// than the pool holds: either would let the plan overcommit nodes.
    pub fn schedule(
        &self,
        jobs: &[Job],
        estimate: impl Fn(&Job) -> f64,
    ) -> Result<Schedule, RtrmError> {
        let durations = jobs
            .iter()
            .map(|job| {
                let invalid = |reason| RtrmError::InvalidJob {
                    job: job.id,
                    reason,
                };
                if job.nodes > self.total_nodes {
                    return Err(invalid("wants more nodes than the pool holds"));
                }
                let duration = estimate(job);
                if !(duration.is_finite() && duration >= 0.0) {
                    return Err(invalid("runtime estimate is negative or not finite"));
                }
                Ok(duration)
            })
            .collect::<Result<Vec<f64>, RtrmError>>()?;
        Ok(match self.policy {
            SchedulerPolicy::Fifo => self.fifo(jobs, &durations),
            SchedulerPolicy::EasyBackfill => self.backfill(jobs, &durations),
        })
    }

    fn fifo(&self, jobs: &[Job], durations: &[f64]) -> Schedule {
        let mut placements = Vec::new();
        for (job, &duration) in jobs.iter().zip(durations) {
            let start = self.earliest_start(&placements, job.arrival_s, job.nodes);
            placements.push(Placement {
                job_id: job.id,
                start_s: start,
                end_s: start + duration,
                nodes: job.nodes,
            });
        }
        summarize(jobs, placements)
    }

    fn backfill(&self, jobs: &[Job], durations: &[f64]) -> Schedule {
        // Process in arrival order, but allow later jobs to start before
        // an earlier blocked job when they do not push back its
        // reservation (EASY: one reservation for the queue head).
        let mut placements: Vec<Placement> = Vec::new();
        let mut scheduled = vec![false; jobs.len()];
        let mut count = 0;
        while count < jobs.len() {
            // queue head = first unscheduled job
            let head = (0..jobs.len())
                .find(|&i| !scheduled[i])
                .expect("jobs remain");
            let head_job = &jobs[head];
            let head_duration = durations[head];
            let head_start = self.earliest_start(&placements, head_job.arrival_s, head_job.nodes);
            // try to backfill later arrivals that fit before head_start
            let mut backfilled = false;
            for i in (head + 1)..jobs.len() {
                if scheduled[i] || jobs[i].arrival_s > head_start {
                    continue;
                }
                let duration = durations[i];
                let start = self.earliest_start(&placements, jobs[i].arrival_s, jobs[i].nodes);
                // must end before the head reservation OR leave enough
                // nodes for the head to start on time
                let coexists = self.free_nodes_at(
                    &placements,
                    head_start,
                    Some((start, start + duration, jobs[i].nodes)),
                ) >= head_job.nodes;
                if start + duration <= head_start || coexists {
                    placements.push(Placement {
                        job_id: jobs[i].id,
                        start_s: start,
                        end_s: start + duration,
                        nodes: jobs[i].nodes,
                    });
                    scheduled[i] = true;
                    count += 1;
                    backfilled = true;
                    break;
                }
            }
            if backfilled {
                continue;
            }
            placements.push(Placement {
                job_id: head_job.id,
                start_s: head_start,
                end_s: head_start + head_duration,
                nodes: head_job.nodes,
            });
            scheduled[head] = true;
            count += 1;
        }
        placements.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        summarize(jobs, placements)
    }

    /// Earliest time ≥ `not_before` at which `nodes` nodes are free.
    fn earliest_start(&self, running: &[Placement], not_before: f64, nodes: usize) -> f64 {
        let mut candidates: Vec<f64> = vec![not_before];
        candidates.extend(running.iter().map(|p| p.end_s).filter(|&t| t > not_before));
        candidates.sort_by(f64::total_cmp);
        for t in candidates {
            if self.free_nodes_at(running, t, None) >= nodes {
                return t;
            }
        }
        unreachable!("all jobs eventually end")
    }

    /// Free nodes at time `t` (half-open intervals `[start, end)`), with
    /// an optional hypothetical extra placement.
    fn free_nodes_at(
        &self,
        running: &[Placement],
        t: f64,
        extra: Option<(f64, f64, usize)>,
    ) -> usize {
        let mut used: usize = running
            .iter()
            .filter(|p| p.start_s <= t && t < p.end_s)
            .map(|p| p.nodes)
            .sum();
        if let Some((start, end, nodes)) = extra {
            if start <= t && t < end {
                used += nodes;
            }
        }
        self.total_nodes.saturating_sub(used)
    }
}

fn summarize(jobs: &[Job], placements: Vec<Placement>) -> Schedule {
    let makespan_s = placements.iter().map(|p| p.end_s).fold(0.0, f64::max);
    let mut wait = 0.0;
    for job in jobs {
        if let Some(p) = placements.iter().find(|p| p.job_id == job.id) {
            wait += p.start_s - job.arrival_s;
        }
    }
    let mean_wait_s = if jobs.is_empty() {
        0.0
    } else {
        wait / jobs.len() as f64
    };
    Schedule {
        placements,
        makespan_s,
        mean_wait_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::job::WorkUnit;

    fn job(id: u64, arrival: f64, nodes: usize) -> Job {
        Job::new(id, arrival, nodes, WorkUnit::compute_bound(1e12))
    }

    /// Fixed one-hour estimate for every job.
    fn hour(_: &Job) -> f64 {
        3600.0
    }

    /// The 4-node plan of `jobs` under `policy` with hour estimates.
    fn plan(policy: SchedulerPolicy, jobs: &[Job]) -> Schedule {
        BatchScheduler::new(4, policy).schedule(jobs, hour).unwrap()
    }

    #[test]
    fn fifo_runs_jobs_in_order_with_capacity() {
        let scheduler = BatchScheduler::new(4, SchedulerPolicy::Fifo);
        let jobs = vec![job(0, 0.0, 2), job(1, 0.0, 2), job(2, 0.0, 2)];
        let schedule = scheduler.schedule(&jobs, hour).unwrap();
        // jobs 0 and 1 run together; job 2 waits
        assert_eq!(schedule.placements[0].start_s, 0.0);
        assert_eq!(schedule.placements[1].start_s, 0.0);
        assert_eq!(schedule.placements[2].start_s, 3600.0);
        assert_eq!(schedule.makespan_s, 7200.0);
    }

    #[test]
    fn fifo_head_of_line_blocking() {
        let scheduler = BatchScheduler::new(4, SchedulerPolicy::Fifo);
        // wide job blocks; narrow job behind it must wait under FIFO
        let jobs = vec![job(0, 0.0, 4), job(1, 1.0, 4), job(2, 2.0, 1)];
        let schedule = scheduler.schedule(&jobs, hour).unwrap();
        let p2 = schedule.placements.iter().find(|p| p.job_id == 2).unwrap();
        assert!(p2.start_s >= 7200.0, "narrow job stuck behind wide ones");
    }

    #[test]
    fn backfill_lets_narrow_jobs_jump_safely() {
        let scheduler = BatchScheduler::new(4, SchedulerPolicy::EasyBackfill);
        // job 0 holds all nodes for an hour; job 1 (wide) must wait until
        // 3600; job 2 (narrow, short) can backfill into the empty space...
        // there is none at t<3600 (all 4 busy), so give job 0 only 3 nodes.
        let jobs = vec![
            Job::new(0, 0.0, 3, WorkUnit::compute_bound(1e12)),
            Job::new(1, 1.0, 4, WorkUnit::compute_bound(1e12)),
            Job::new(2, 2.0, 1, WorkUnit::compute_bound(1e12)),
        ];
        let schedule = scheduler.schedule(&jobs, hour).unwrap();
        let p1 = schedule.placements.iter().find(|p| p.job_id == 1).unwrap();
        let p2 = schedule.placements.iter().find(|p| p.job_id == 2).unwrap();
        assert_eq!(p1.start_s, 3600.0, "wide job reserved at hour one");
        assert!(
            p2.start_s < 3600.0,
            "narrow job backfills the idle node: started {}",
            p2.start_s
        );
        // and the reservation was not delayed
        assert_eq!(p1.start_s, 3600.0);
    }

    #[test]
    fn backfill_never_beats_fifo_on_makespan_here() {
        let jobs: Vec<Job> = (0..10)
            .map(|i| job(i, i as f64 * 10.0, 1 + (i as usize % 3)))
            .collect();
        let fifo = plan(SchedulerPolicy::Fifo, &jobs);
        let easy = plan(SchedulerPolicy::EasyBackfill, &jobs);
        assert!(easy.mean_wait_s <= fifo.mean_wait_s + 1e-9);
        assert!(easy.makespan_s <= fifo.makespan_s + 1e-9);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let scheduler = BatchScheduler::new(4, SchedulerPolicy::EasyBackfill);
        let jobs: Vec<Job> = (0..12).map(|i| job(i, (i / 3) as f64, 2)).collect();
        let schedule = scheduler.schedule(&jobs, hour).unwrap();
        // sample usage at many instants
        for k in 0..200 {
            let t = k as f64 * 120.0;
            let used: usize = schedule
                .placements
                .iter()
                .filter(|p| p.start_s <= t && t < p.end_s)
                .map(|p| p.nodes)
                .sum();
            assert!(used <= 4, "overcommitted at t={t}: {used}");
        }
    }

    #[test]
    fn oversized_job_rejected() {
        let scheduler = BatchScheduler::new(2, SchedulerPolicy::Fifo);
        let err = scheduler.schedule(&[job(0, 0.0, 3)], hour).unwrap_err();
        assert!(matches!(err, RtrmError::InvalidJob { job: 0, .. }));
        assert!(err.to_string().contains("more nodes"));
    }

    #[test]
    fn bad_estimates_are_rejected_not_overcommitted() {
        // a NaN end time never counts as running, so before validation
        // both 4-node jobs started at t=0 on a 4-node pool
        let jobs = vec![job(0, 0.0, 4), job(1, 0.0, 4)];
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::EasyBackfill] {
            let scheduler = BatchScheduler::new(4, policy);
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let estimate = |j: &Job| if j.id == 0 { bad } else { 3600.0 };
                assert_eq!(
                    scheduler.schedule(&jobs, estimate),
                    Err(RtrmError::InvalidJob {
                        job: 0,
                        reason: "runtime estimate is negative or not finite"
                    }),
                    "{policy:?} with estimate {bad}"
                );
            }
        }
    }
}
