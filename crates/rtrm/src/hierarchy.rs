//! Hierarchical power management: cluster → node control loops.
//!
//! Paper §V calls for "scalable and hierarchical optimal control-loops
//! ... at different time scale". [`HierarchicalPowerManager`] composes a
//! slow cluster loop (splitting a facility power budget across nodes by
//! demand) with fast node loops (a capper clamping each node's P-state).
//! The ablation experiment (A3) contrasts it with [`FlatPowerManager`],
//! which pins one uniform P-state from a single global estimate and
//! cannot react to per-node demand or variability.

use crate::error::{check_budget_w, RtrmError};
use crate::powercap::{estimated_power_w, try_uniform_split, try_weighted_split, PowerCapper};
use antarex_sim::job::WorkUnit;
use antarex_sim::node::Node;

fn check_shape(nodes: usize, work: usize) -> Result<(), RtrmError> {
    if nodes == work {
        Ok(())
    } else {
        Err(RtrmError::ShapeMismatch {
            what: "one work list per node",
            expected: nodes,
            actual: work,
        })
    }
}

/// Outcome of running a managed workload phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagedOutcome {
    /// Total energy, joules.
    pub energy_j: f64,
    /// Makespan across nodes, seconds.
    pub makespan_s: f64,
    /// Peak simultaneous estimated power, watts.
    pub peak_power_w: f64,
    /// Seconds-weighted power-budget overshoot integral, W·s.
    pub overshoot_ws: f64,
}

/// The hierarchical manager: per-node cappers fed by a demand-weighted
/// split of the cluster budget.
#[derive(Debug, Clone)]
pub struct HierarchicalPowerManager {
    budget_w: f64,
}

impl HierarchicalPowerManager {
    /// Creates a manager with the given cluster budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn new(budget_w: f64) -> Self {
        Self::try_new(budget_w).expect("budget must be positive")
    }

    /// Creates a manager, rejecting non-finite or non-positive budgets
    /// with a typed error instead of panicking.
    pub(crate) fn try_new(budget_w: f64) -> Result<Self, RtrmError> {
        check_budget_w("cluster budget", budget_w)
            .map(|budget_w| HierarchicalPowerManager { budget_w })
    }

    /// Runs one phase: every node executes its own work list; before each
    /// unit the cluster loop re-splits the budget by remaining demand and
    /// the node loop enforces the local cap.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one work list per node.
    pub fn run_phase(&self, nodes: &mut [Node], work: &[Vec<WorkUnit>]) -> ManagedOutcome {
        self.try_run_phase(nodes, work)
            .expect("one work list per node")
    }

    /// [`run_phase`](Self::run_phase) with the shape assertion turned
    /// into a typed error: a dispatcher that mis-counts its own queue
    /// gets an [`RtrmError::ShapeMismatch`] back, not a panic in the
    /// middle of the control loop.
    pub(crate) fn try_run_phase(
        &self,
        nodes: &mut [Node],
        work: &[Vec<WorkUnit>],
    ) -> Result<ManagedOutcome, RtrmError> {
        check_shape(nodes.len(), work.len())?;
        let mut node_time = vec![0.0f64; nodes.len()];
        let mut energy = 0.0;
        let mut peak: f64 = 0.0;
        let mut overshoot = 0.0;
        let rounds = work.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            // cluster loop: demand = remaining flops per node
            let weights: Vec<f64> = work
                .iter()
                .map(|list| {
                    list[round.min(list.len().saturating_sub(1))..]
                        .iter()
                        .map(|w| w.flops)
                        .sum::<f64>()
                        * if round < list.len() { 1.0 } else { 0.0 }
                })
                .collect();
            let caps =
                try_weighted_split(self.budget_w, &weights).ok_or(RtrmError::NoAliveNodes)?;
            let mut round_power = 0.0;
            for (i, node) in nodes.iter_mut().enumerate() {
                let Some(unit) = work[i].get(round) else {
                    continue;
                };
                // node loop: enforce the local cap at max speed otherwise
                node.set_pstate(node.spec().pstates.max_index());
                PowerCapper::new(caps[i].max(1.0)).enforce(node);
                let outcome = node.execute(unit);
                energy += outcome.energy_j;
                node_time[i] += outcome.time_s;
                round_power += outcome.avg_power_w;
            }
            peak = peak.max(round_power);
            if round_power > self.budget_w {
                overshoot += round_power - self.budget_w;
            }
        }
        Ok(ManagedOutcome {
            energy_j: energy,
            makespan_s: node_time.iter().cloned().fold(0.0, f64::max),
            peak_power_w: peak,
            overshoot_ws: overshoot,
        })
    }
}

/// The flat baseline: one global P-state chosen once from the nominal
/// node estimate, no per-node adjustment.
#[derive(Debug, Clone)]
pub struct FlatPowerManager {
    budget_w: f64,
}

impl FlatPowerManager {
    /// Creates the flat manager.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn new(budget_w: f64) -> Self {
        Self::try_new(budget_w).expect("budget must be positive")
    }

    /// Creates the flat manager, rejecting invalid budgets with a typed
    /// error instead of panicking.
    pub(crate) fn try_new(budget_w: f64) -> Result<Self, RtrmError> {
        check_budget_w("cluster budget", budget_w).map(|budget_w| FlatPowerManager { budget_w })
    }

    /// Runs one phase with a single uniform P-state for every node,
    /// derived from the uniform budget split against node 0's estimate.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one work list per node.
    pub fn run_phase(&self, nodes: &mut [Node], work: &[Vec<WorkUnit>]) -> ManagedOutcome {
        self.try_run_phase(nodes, work)
            .expect("one work list per node")
    }

    /// [`run_phase`](Self::run_phase) with typed errors in place of the
    /// shape assertion and the empty-cluster panic.
    pub(crate) fn try_run_phase(
        &self,
        nodes: &mut [Node],
        work: &[Vec<WorkUnit>],
    ) -> Result<ManagedOutcome, RtrmError> {
        check_shape(nodes.len(), work.len())?;
        let caps = try_uniform_split(self.budget_w, nodes.len()).ok_or(RtrmError::NoAliveNodes)?;
        // one decision, from the first node's estimate only
        let mut pstate = 0;
        for idx in 0..nodes[0].spec().pstates.len() {
            if estimated_power_w(&nodes[0], idx) <= caps[0] {
                pstate = idx;
            }
        }
        let mut node_time = vec![0.0f64; nodes.len()];
        let mut energy = 0.0;
        let mut peak: f64 = 0.0;
        let mut overshoot = 0.0;
        let rounds = work.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            let mut round_power = 0.0;
            for (i, node) in nodes.iter_mut().enumerate() {
                let Some(unit) = work[i].get(round) else {
                    continue;
                };
                node.set_pstate(pstate);
                let outcome = node.execute(unit);
                energy += outcome.energy_j;
                node_time[i] += outcome.time_s;
                round_power += outcome.avg_power_w;
            }
            peak = peak.max(round_power);
            if round_power > self.budget_w {
                overshoot += round_power - self.budget_w;
            }
        }
        Ok(ManagedOutcome {
            energy_j: energy,
            makespan_s: node_time.iter().cloned().fold(0.0, f64::max),
            peak_power_w: peak,
            overshoot_ws: overshoot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;
    use antarex_sim::variability::ProcessVariation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn varied_pool(n: usize, seed: u64) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Node::with_variation(
                    NodeSpec::cineca_xeon(),
                    i,
                    ProcessVariation::sample(&mut rng),
                )
            })
            .collect()
    }

    fn skewed_work(n: usize) -> Vec<Vec<WorkUnit>> {
        // node 0 has 4x the work of the others
        (0..n)
            .map(|i| {
                let units = if i == 0 { 8 } else { 2 };
                vec![WorkUnit::compute_bound(1e12); units]
            })
            .collect()
    }

    #[test]
    fn hierarchical_respects_budget_better_than_flat() {
        let nodes_count = 4;
        let budget = 700.0;
        let mut pool_h = varied_pool(nodes_count, 10);
        let hier =
            HierarchicalPowerManager::new(budget).run_phase(&mut pool_h, &skewed_work(nodes_count));
        let mut pool_f = varied_pool(nodes_count, 10);
        let flat = FlatPowerManager::new(budget).run_phase(&mut pool_f, &skewed_work(nodes_count));
        assert!(
            hier.overshoot_ws <= flat.overshoot_ws + 1e-9,
            "hierarchical overshoot {} vs flat {}",
            hier.overshoot_ws,
            flat.overshoot_ws
        );
    }

    #[test]
    fn hierarchical_finishes_skewed_work_faster() {
        let nodes_count = 4;
        let budget = 800.0;
        let mut pool_h = varied_pool(nodes_count, 11);
        let hier =
            HierarchicalPowerManager::new(budget).run_phase(&mut pool_h, &skewed_work(nodes_count));
        let mut pool_f = varied_pool(nodes_count, 11);
        let flat = FlatPowerManager::new(budget).run_phase(&mut pool_f, &skewed_work(nodes_count));
        // demand-weighted budget lets the loaded node run faster
        assert!(
            hier.makespan_s <= flat.makespan_s * 1.05,
            "hier {} vs flat {}",
            hier.makespan_s,
            flat.makespan_s
        );
    }

    #[test]
    fn outcome_fields_populated() {
        let mut pool = varied_pool(2, 12);
        let outcome = HierarchicalPowerManager::new(600.0)
            .run_phase(&mut pool, &vec![vec![WorkUnit::compute_bound(1e12)]; 2]);
        assert!(outcome.energy_j > 0.0);
        assert!(outcome.makespan_s > 0.0);
        assert!(outcome.peak_power_w > 0.0);
    }

    #[test]
    #[should_panic(expected = "one work list per node")]
    fn mismatched_work_rejected() {
        let mut pool = varied_pool(2, 13);
        HierarchicalPowerManager::new(600.0).run_phase(&mut pool, &[vec![]]);
    }

    #[test]
    fn try_apis_return_typed_errors_instead_of_panicking() {
        use crate::error::RtrmError;
        for bad in [0.0, -100.0, f64::NAN, f64::INFINITY] {
            assert!(HierarchicalPowerManager::try_new(bad).is_err(), "{bad}");
            assert!(FlatPowerManager::try_new(bad).is_err(), "{bad}");
        }
        let hier = HierarchicalPowerManager::try_new(600.0).expect("valid budget");
        let mut pool = varied_pool(2, 14);
        assert_eq!(
            hier.try_run_phase(&mut pool, &[vec![]]),
            Err(RtrmError::ShapeMismatch {
                what: "one work list per node",
                expected: 2,
                actual: 1
            })
        );
        let flat = FlatPowerManager::try_new(600.0).expect("valid budget");
        assert!(flat.try_run_phase(&mut pool, &[vec![]]).is_err());
        // the empty cluster is an error, not a panic
        assert_eq!(
            flat.try_run_phase(&mut [], &[]),
            Err(RtrmError::NoAliveNodes)
        );
    }

    #[test]
    fn try_run_phase_matches_the_panicking_form() {
        let work = skewed_work(4);
        let mut pool_a = varied_pool(4, 15);
        let via_panic = HierarchicalPowerManager::new(700.0).run_phase(&mut pool_a, &work);
        let mut pool_b = varied_pool(4, 15);
        let via_result = HierarchicalPowerManager::try_new(700.0)
            .unwrap()
            .try_run_phase(&mut pool_b, &work)
            .unwrap();
        assert_eq!(via_panic, via_result);
    }
}
