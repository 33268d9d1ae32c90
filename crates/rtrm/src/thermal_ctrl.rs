//! Thermally-safe operation.
//!
//! Two mechanisms from §V:
//!
//! * [`ThermalThrottle`] — the node-level "distributed optimal thermal
//!   management controller": steps the P-state down when the junction
//!   approaches its limit and back up when there is headroom;
//! * [`Ms3Admission`] — the MS3-style scheduler policy ("do less when
//!   it's too hot"): scales back the admitted load when the ambient
//!   temperature degrades cooling efficiency, trading throughput for
//!   energy and thermal safety.

use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, SteadyLimit};
use std::ops::Range;

/// Hysteresis P-state throttle keeping the junction under a limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalThrottle {
    /// Junction limit, °C (throttle above this).
    pub limit_c: f64,
    /// Re-arm temperature, °C (unthrottle below this).
    pub release_c: f64,
}

impl ThermalThrottle {
    /// A typical 85 °C limit with 10 °C hysteresis.
    pub(crate) fn default_server() -> Self {
        ThermalThrottle {
            limit_c: 85.0,
            release_c: 75.0,
        }
    }

    /// The fastest P-state in `states` whose full-load steady-state
    /// junction temperature is at or below the limit
    /// (`steady_temp_at(idx, 1.0) <= limit_c`), if any. Each state is
    /// decided by [`SteadyLimit::steady_temp_within`], which stops the
    /// prediction once the answer is certain (one or two steps of the
    /// fixed point for most states instead of twelve). The scan runs
    /// top-down and stops at the first safe state: the same index as
    /// keeping the last pass of a bottom-up scan, with no monotonicity of
    /// steady temperature in the P-state assumed.
    fn fastest_safe(limit: &SteadyLimit, states: Range<usize>) -> Option<usize> {
        states.rev().find(|&idx| limit.steady_temp_within(idx, 1.0))
    }

    /// The thermal-emergency clamp on a P-state `chosen` by the capper:
    /// `(pstate, throttled)`, where `pstate` is the fastest safe state
    /// (0 if none is safe) whenever that is slower than `chosen`, and
    /// `chosen` otherwise. `chosen` is tested first, so a decision the
    /// clamp does not touch costs one steady-state prediction; the states
    /// above it are tried before any below, so the answer is exact even
    /// where a faster state would be safe and `chosen` is not. Each
    /// prediction is a safety test ([`SteadyLimit::steady_temp_within`]),
    /// so it costs the steps that decide it, not the full fixed point.
    /// The leakage at the limit is evaluated once per decision
    /// ([`Node::steady_limit`]) and the leakage at the die's temperature
    /// is the node's kept one, so a prediction the first step decides
    /// costs no `powf`, on any P-state.
    pub(crate) fn clamp(&self, node: &Node, chosen: usize) -> (usize, bool) {
        let limit = node.steady_limit(self.limit_c);
        let len = node.spec().pstates.len();
        if limit.steady_temp_within(chosen, 1.0)
            || Self::fastest_safe(&limit, chosen + 1..len).is_some()
        {
            return (chosen, false);
        }
        let safe = Self::fastest_safe(&limit, 0..chosen).unwrap_or(0);
        (safe, safe < chosen)
    }

    /// Adjusts the node's P-state: model-predictive selection of the
    /// fastest state whose full-load steady-state junction temperature
    /// respects the limit (0 if none does), with hysteresis on
    /// re-acceleration (the node must cool below `release_c` before
    /// speeding back up). Returns `true` if a throttling (slow-down)
    /// action was taken.
    pub(crate) fn regulate(&self, node: &mut Node) -> bool {
        let limit = node.steady_limit(self.limit_c);
        let target = Self::fastest_safe(&limit, 0..node.spec().pstates.len()).unwrap_or(0);
        let current = node.pstate_index();
        if target < current {
            node.set_pstate(target);
            return true;
        }
        if target > current && node.temp_c() < self.release_c {
            node.set_pstate(target);
        }
        false
    }

    /// Runs a stream of work under throttling; returns
    /// `(time_s, energy_j, thermal_violations)` where a violation is a
    /// unit finishing above the limit.
    pub fn run(&self, node: &mut Node, work_units: &[WorkUnit]) -> (f64, f64, usize) {
        let mut time = 0.0;
        let mut energy = 0.0;
        let mut violations = 0;
        for work in work_units {
            self.regulate(node);
            let outcome = node.execute(work);
            time += outcome.time_s;
            energy += outcome.energy_j;
            if outcome.final_temp_c > self.limit_c {
                violations += 1;
            }
        }
        (time, energy, violations)
    }
}

/// MS3-style hot-weather admission control: the fraction of offered load
/// admitted shrinks as ambient rises past the comfort band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ms3Admission {
    /// Ambient below which everything is admitted, °C.
    pub comfort_c: f64,
    /// Ambient at which admission bottoms out, °C.
    pub extreme_c: f64,
    /// Admission floor (fraction) at extreme ambient.
    pub floor: f64,
}

impl Ms3Admission {
    /// A Mediterranean profile: full service below 18 °C ambient, down to
    /// 60% of load at 35 °C.
    pub fn mediterranean() -> Self {
        Ms3Admission {
            comfort_c: 18.0,
            extreme_c: 35.0,
            floor: 0.6,
        }
    }

    /// Fraction of offered load to admit at the given ambient.
    pub fn admitted_fraction(&self, ambient_c: f64) -> f64 {
        if ambient_c <= self.comfort_c {
            return 1.0;
        }
        if ambient_c >= self.extreme_c {
            return self.floor;
        }
        let t = (ambient_c - self.comfort_c) / (self.extreme_c - self.comfort_c);
        1.0 - t * (1.0 - self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;

    #[test]
    fn throttle_caps_temperature() {
        let throttle = ThermalThrottle {
            limit_c: 70.0,
            release_c: 60.0,
        };
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        node.set_inlet_temp(35.0); // hot rack
        let work = vec![WorkUnit::compute_bound(2e13); 12];
        let (_, _, violations_ctl) = throttle.run(&mut node, &work);

        let mut free = Node::nominal(NodeSpec::cineca_xeon(), 1);
        free.set_inlet_temp(35.0);
        let mut violations_free = 0;
        for w in &work {
            if free.execute(w).final_temp_c > throttle.limit_c {
                violations_free += 1;
            }
        }
        assert!(
            violations_ctl < violations_free,
            "throttled {violations_ctl} vs free {violations_free}"
        );
        assert!(node.temp_c() < free.temp_c());
    }

    #[test]
    fn throttle_recovers_when_cool() {
        let throttle = ThermalThrottle::default_server();
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        node.set_pstate(0);
        // cold node: the controller jumps to the fastest thermally-safe
        // state in one decision
        let acted = throttle.regulate(&mut node);
        assert!(!acted, "speeding up is not a throttling action");
        let chosen = node.pstate_index();
        assert!(chosen > 0, "cold node must speed up");
        assert!(node.steady_temp_at(chosen, 1.0) <= throttle.limit_c + 1e-9);
        // ... and never past the safe point
        if chosen < node.spec().pstates.max_index() {
            assert!(node.steady_temp_at(chosen + 1, 1.0) > throttle.limit_c);
        }
    }

    #[test]
    fn admission_profile_shape() {
        let ms3 = Ms3Admission::mediterranean();
        assert_eq!(ms3.admitted_fraction(10.0), 1.0);
        assert_eq!(ms3.admitted_fraction(40.0), 0.6);
        let mid = ms3.admitted_fraction(26.5);
        assert!(mid > 0.6 && mid < 1.0);
        // monotone decreasing
        assert!(ms3.admitted_fraction(20.0) >= ms3.admitted_fraction(30.0));
    }
}
