//! Energy-aware frequency assignment for concurrent jobs.
//!
//! The paper cites the SuperMUC energy-aware scheduling study (§V, ref. 22):
//! a scheduler that assigns per-job CPU frequencies, trading a little
//! runtime for substantial energy under a facility power budget. The
//! [`EnergyAwareAssigner`] does exactly that over the simulated node
//! model:
//!
//! 1. start every job at its *energy-optimal* P-state (the per-workload
//!    optimum the ANTAREX runtime learns);
//! 2. while the concurrent power estimate exceeds the facility cap,
//!    down-clock the job with the cheapest marginal slowdown per watt
//!    shed.

use crate::governor::optimal_pstate;
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};

/// One job to co-schedule: a number of nodes running a workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Job identifier.
    pub id: u64,
    /// Nodes the job occupies.
    pub nodes: usize,
    /// Per-node repeating work unit (profile).
    pub profile: WorkUnit,
}

/// The frequency assignment for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Job identifier.
    pub job_id: u64,
    /// Chosen P-state index.
    pub pstate: usize,
    /// Estimated per-node power at that state, watts.
    pub node_power_w: f64,
    /// Estimated per-unit runtime at that state, seconds.
    pub unit_time_s: f64,
    /// Estimated per-unit, per-node energy, joules.
    pub unit_energy_j: f64,
}

/// Result of an assignment round.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyPlan {
    /// Per-job assignments.
    pub assignments: Vec<Assignment>,
    /// Estimated total concurrent power, watts.
    pub total_power_w: f64,
    /// Whether the cap could be met.
    pub feasible: bool,
}

/// Probes a job profile at one P-state on a scratch node.
fn probe(spec: &NodeSpec, pstate: usize, profile: &WorkUnit) -> (f64, f64, f64) {
    let mut node = Node::nominal(spec.clone(), 0);
    node.set_pstate(pstate);
    let outcome = node.execute(profile);
    (outcome.avg_power_w, outcome.time_s, outcome.energy_j)
}

/// The energy-aware frequency assigner.
#[derive(Debug, Clone)]
pub struct EnergyAwareAssigner {
    spec: NodeSpec,
    cap_w: f64,
}

impl EnergyAwareAssigner {
    /// Creates an assigner for a homogeneous partition of `spec` nodes
    /// under a facility power cap.
    ///
    /// # Panics
    ///
    /// Panics if the cap is not positive.
    pub fn new(spec: NodeSpec, cap_w: f64) -> Self {
        assert!(cap_w > 0.0, "power cap must be positive");
        EnergyAwareAssigner { spec, cap_w }
    }

    /// Assigns P-states to the concurrent `jobs`.
    pub fn assign(&self, jobs: &[JobRequest]) -> EnergyPlan {
        let mut states: Vec<usize> = jobs
            .iter()
            .map(|job| {
                let node = Node::nominal(self.spec.clone(), 0);
                optimal_pstate(&node, &job.profile)
            })
            .collect();
        let metrics = |job: &JobRequest, pstate: usize| probe(&self.spec, pstate, &job.profile);

        let total = |states: &[usize]| -> f64 {
            jobs.iter()
                .zip(states)
                .map(|(job, &s)| metrics(job, s).0 * job.nodes as f64)
                .sum()
        };

        let mut feasible = true;
        while total(&states) > self.cap_w {
            // job with the cheapest marginal slowdown per watt shed
            let mut best: Option<(usize, f64)> = None;
            for (i, job) in jobs.iter().enumerate() {
                if states[i] == 0 {
                    continue;
                }
                let (p_now, t_now, _) = metrics(job, states[i]);
                let (p_down, t_down, _) = metrics(job, states[i] - 1);
                let shed = (p_now - p_down) * job.nodes as f64;
                if shed <= 0.0 {
                    continue;
                }
                let slowdown = (t_down - t_now).max(0.0);
                let ratio = slowdown / shed;
                if best.is_none_or(|(_, b)| ratio < b) {
                    best = Some((i, ratio));
                }
            }
            match best {
                Some((i, _)) => states[i] -= 1,
                None => {
                    feasible = false;
                    break;
                }
            }
        }

        let assignments = jobs
            .iter()
            .zip(&states)
            .map(|(job, &pstate)| {
                let (power, time, energy) = metrics(job, pstate);
                Assignment {
                    job_id: job.id,
                    pstate,
                    node_power_w: power,
                    unit_time_s: time,
                    unit_energy_j: energy,
                }
            })
            .collect();
        let total_power_w = total(&states);
        EnergyPlan {
            assignments,
            total_power_w,
            feasible: feasible && total_power_w <= self.cap_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs() -> Vec<JobRequest> {
        vec![
            JobRequest {
                id: 0,
                nodes: 4,
                profile: WorkUnit::memory_bound(2e11),
            },
            JobRequest {
                id: 1,
                nodes: 4,
                profile: WorkUnit::compute_bound(5e11),
            },
        ]
    }

    #[test]
    fn generous_cap_keeps_energy_optimal_states() {
        let assigner = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 1e6);
        let plan = assigner.assign(&jobs());
        assert!(plan.feasible);
        // memory-bound job sits at a lower P-state than the compute-bound
        assert!(plan.assignments[0].pstate < plan.assignments[1].pstate);
    }

    #[test]
    fn tight_cap_downclocks_the_cheapest_job_first() {
        let generous = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 1e6).assign(&jobs());
        let cap = generous.total_power_w * 0.85;
        let plan = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), cap).assign(&jobs());
        assert!(plan.feasible, "15% shed must be achievable");
        assert!(plan.total_power_w <= cap);
        // someone was down-clocked
        let total_states: usize = plan.assignments.iter().map(|a| a.pstate).sum();
        let generous_states: usize = generous.assignments.iter().map(|a| a.pstate).sum();
        assert!(total_states < generous_states);
        // the memory-bound job (free slowdown) should absorb the first cuts
        assert!(
            plan.assignments[0].pstate <= generous.assignments[0].pstate,
            "memory-bound job down-clocked first"
        );
    }

    #[test]
    fn impossible_cap_is_reported_infeasible() {
        let plan = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 10.0).assign(&jobs());
        assert!(!plan.feasible);
        // everything pinned to the floor
        assert!(plan.assignments.iter().all(|a| a.pstate == 0));
    }

    #[test]
    fn capped_plan_costs_little_runtime() {
        // the SuperMUC finding: a modest cap costs percent-level runtime
        // on memory-sensitive mixes while shedding real power
        let generous = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 1e6).assign(&jobs());
        let cap = generous.total_power_w * 0.9;
        let plan = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), cap).assign(&jobs());
        let slowdown: f64 = plan
            .assignments
            .iter()
            .zip(&generous.assignments)
            .map(|(a, b)| a.unit_time_s / b.unit_time_s)
            .fold(1.0f64, f64::max);
        assert!(plan.total_power_w <= cap);
        assert!(slowdown < 1.30, "worst job slowdown {slowdown}");
    }

    #[test]
    fn empty_job_list() {
        let plan = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 100.0).assign(&[]);
        assert!(plan.feasible);
        assert_eq!(plan.total_power_w, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_rejected() {
        let _ = EnergyAwareAssigner::new(NodeSpec::cineca_xeon(), 0.0);
    }
}
