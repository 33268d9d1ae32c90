//! DVFS governors.
//!
//! The paper's §V baseline is "the default frequency selection of the
//! Linux OS power governor", against which "an optimal selection of
//! operating points can save from 18% to 50% of node energy". The Linux
//! policies are reproduced with their documented semantics; the ANTAREX
//! [`GovernorKind::EnergyOptimal`] policy probes the P-state table for the
//! workload at hand (it has the node model available — the oracle the
//! paper's runtime learns toward).

use antarex_sim::job::WorkUnit;
use antarex_sim::node::Node;

/// Which frequency-selection policy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorKind {
    /// Pin the fastest P-state (Linux `performance`).
    Performance,
    /// Pin the slowest P-state (Linux `powersave`).
    Powersave,
    /// Jump to max when utilization exceeds 80%, otherwise drop to the
    /// lowest state that keeps utilization below it (Linux `ondemand`).
    Ondemand,
    /// Step one P-state up/down when utilization crosses 80%/20%
    /// (Linux `conservative`).
    Conservative,
    /// Choose the P-state minimizing measured energy for the workload
    /// (the ANTAREX optimal operating point).
    EnergyOptimal,
}

impl GovernorKind {
    /// Canonical (Linux cpufreq) name.
    pub fn name(self) -> &'static str {
        match self {
            GovernorKind::Performance => "performance",
            GovernorKind::Powersave => "powersave",
            GovernorKind::Ondemand => "ondemand",
            GovernorKind::Conservative => "conservative",
            GovernorKind::EnergyOptimal => "energy-optimal",
        }
    }
}

/// A stateful governor instance driving one node.
#[derive(Debug, Clone)]
pub struct Governor {
    kind: GovernorKind,
    up_threshold: f64,
    down_threshold: f64,
    last_utilization: f64,
}

impl Governor {
    /// Creates a governor of the given kind with Linux-default thresholds
    /// (up 80%, down 20%).
    pub fn new(kind: GovernorKind) -> Self {
        Governor {
            kind,
            up_threshold: 0.8,
            down_threshold: 0.2,
            last_utilization: 1.0,
        }
    }

    /// Feeds the utilization observed over the last sampling period
    /// (0..=1); governors with dynamic policies react on the next
    /// [`Governor::select`].
    pub(crate) fn observe_utilization(&mut self, utilization: f64) {
        self.last_utilization = utilization.clamp(0.0, 1.0);
    }

    /// Selects the P-state index for the upcoming period. For
    /// `EnergyOptimal`, `workload` must describe the work about to run;
    /// the other policies ignore it.
    pub fn select(&mut self, node: &Node, workload: Option<&WorkUnit>) -> usize {
        let table = &node.spec().pstates;
        let max = table.max_index();
        match self.kind {
            GovernorKind::Performance => max,
            GovernorKind::Powersave => 0,
            GovernorKind::Ondemand => {
                if self.last_utilization > self.up_threshold {
                    max
                } else {
                    // lowest frequency that would keep utilization < up_threshold
                    let current_freq = node.pstate().freq_ghz;
                    let needed = current_freq * self.last_utilization / self.up_threshold;
                    table.nearest(needed)
                }
            }
            GovernorKind::Conservative => {
                let current = node.pstate_index();
                if self.last_utilization > self.up_threshold {
                    (current + 1).min(max)
                } else if self.last_utilization < self.down_threshold {
                    current.saturating_sub(1)
                } else {
                    current
                }
            }
            GovernorKind::EnergyOptimal => match workload {
                Some(work) => optimal_pstate(node, work),
                None => max,
            },
        }
    }
}

/// Probes every P-state on a clone of the node, returning the index that
/// minimizes energy for `work` (the oracle operating point).
pub fn optimal_pstate(node: &Node, work: &WorkUnit) -> usize {
    let mut best = (node.spec().pstates.max_index(), f64::INFINITY);
    for idx in 0..node.spec().pstates.len() {
        let mut probe = node.clone();
        probe.set_pstate(idx);
        let outcome = probe.execute(work);
        if outcome.energy_j < best.1 {
            best = (idx, outcome.energy_j);
        }
    }
    best.0
}

/// Runs a stream of work units under a governor, returning total
/// `(time_s, energy_j)`. Utilization is fed back between units the way
/// cpufreq samples CPU load.
pub fn run_with_governor(
    node: &mut Node,
    governor: &mut Governor,
    work_units: &[WorkUnit],
) -> (f64, f64) {
    let mut time = 0.0;
    let mut energy = 0.0;
    for work in work_units {
        let idx = governor.select(node, Some(work));
        node.set_pstate(idx);
        let outcome = node.execute(work);
        time += outcome.time_s;
        energy += outcome.energy_j;
        // utilization proxy: compute share of the roofline at this freq
        let peak = node.spec().cpu_peak_gflops(node.pstate().freq_ghz) * 1e9;
        let compute_s = work.flops / peak;
        governor.observe_utilization(compute_s / outcome.time_s);
    }
    (time, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;

    fn node() -> Node {
        Node::nominal(NodeSpec::cineca_xeon(), 0)
    }

    #[test]
    fn static_policies() {
        let node = node();
        let max = node.spec().pstates.max_index();
        assert_eq!(
            Governor::new(GovernorKind::Performance).select(&node, None),
            max
        );
        assert_eq!(
            Governor::new(GovernorKind::Powersave).select(&node, None),
            0
        );
    }

    #[test]
    fn ondemand_races_when_busy_and_relaxes_when_idle() {
        let node = node();
        let mut gov = Governor::new(GovernorKind::Ondemand);
        gov.observe_utilization(0.95);
        assert_eq!(gov.select(&node, None), node.spec().pstates.max_index());
        gov.observe_utilization(0.10);
        assert!(gov.select(&node, None) < node.spec().pstates.max_index() / 2);
    }

    #[test]
    fn conservative_steps_gradually() {
        let mut n = node();
        n.set_pstate(4);
        let mut gov = Governor::new(GovernorKind::Conservative);
        gov.observe_utilization(0.95);
        assert_eq!(gov.select(&n, None), 5);
        gov.observe_utilization(0.05);
        assert_eq!(gov.select(&n, None), 3);
        gov.observe_utilization(0.5);
        assert_eq!(gov.select(&n, None), 4, "hysteresis band holds");
    }

    #[test]
    fn optimal_pstate_depends_on_workload() {
        let node = node();
        let mem = optimal_pstate(&node, &WorkUnit::memory_bound(5e11));
        let cpu = optimal_pstate(&node, &WorkUnit::compute_bound(5e12));
        assert!(
            mem < cpu,
            "memory-bound optimum ({mem}) below compute-bound ({cpu})"
        );
    }

    #[test]
    fn energy_optimal_beats_performance_governor() {
        // the C3 claim: optimal operating point saves substantial energy
        // vs the default Linux policy on a memory-heavy workload
        let work = vec![WorkUnit::memory_bound(2e11); 8];
        let mut n1 = node();
        let (_, e_perf) = run_with_governor(
            &mut n1,
            &mut Governor::new(GovernorKind::Performance),
            &work,
        );
        let mut n2 = node();
        let (_, e_opt) = run_with_governor(
            &mut n2,
            &mut Governor::new(GovernorKind::EnergyOptimal),
            &work,
        );
        let saving = 1.0 - e_opt / e_perf;
        assert!(
            saving > 0.18,
            "optimal saves only {:.1}% (< paper's 18–50% band)",
            saving * 100.0
        );
        assert!(saving < 0.60, "saving {saving} suspiciously large");
    }

    #[test]
    fn governor_names() {
        assert_eq!(GovernorKind::Ondemand.name(), "ondemand");
    }

    #[test]
    fn run_with_governor_accumulates() {
        let mut n = node();
        let mut gov = Governor::new(GovernorKind::Ondemand);
        let (t, e) = run_with_governor(&mut n, &mut gov, &[WorkUnit::compute_bound(1e12); 3]);
        assert!(t > 0.0 && e > 0.0);
        assert_eq!(n.flops_done(), 3e12);
    }
}
