//! The bottom-up P-state scans the thermal clamp and the power capper
//! ran before they scanned top-down, kept as oracles: each walks every
//! state from slowest to fastest and keeps the *last* that passes. The
//! properties below check the production scans against them over a
//! population of nodes, die temperatures from cold to past the leakage
//! saturation, unsensed readings, degenerate caps and every cap-chosen
//! index. The oracles compare the full fixed point
//! (`Node::steady_temp_at`, which evaluates every leakage afresh) with
//! the limit; the clamp asks the early-stopping
//! `SteadyLimit::steady_temp_within`, which reads the leakage the node
//! keeps for its temperature, and is checked against that comparison
//! directly as well.

use crate::cluster_ctrl::{NodeController, RegionKind};
use crate::powercap::{estimated_power_at_temp, PowerCapper};
use crate::thermal_ctrl::ThermalThrottle;
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::variability::ProcessVariation;
use std::sync::Arc;

/// `ThermalThrottle::regulate` as a bottom-up scan.
fn regulate_oracle(throttle: &ThermalThrottle, node: &mut Node) -> bool {
    let mut target = 0;
    for idx in 0..node.spec().pstates.len() {
        if node.steady_temp_at(idx, 1.0) <= throttle.limit_c {
            target = idx;
        }
    }
    let current = node.pstate_index();
    if target < current {
        node.set_pstate(target);
        return true;
    }
    if target > current && node.temp_c() < throttle.release_c {
        node.set_pstate(target);
    }
    false
}

/// `NodeController::plan`'s thermal clamp on a cap-chosen state, as a
/// bottom-up scan: `(pstate, throttled)`.
fn clamp_oracle(throttle: &ThermalThrottle, node: &Node, chosen: usize) -> (usize, bool) {
    let mut safe = 0;
    for idx in 0..node.spec().pstates.len() {
        if node.steady_temp_at(idx, 1.0) <= throttle.limit_c {
            safe = idx;
        }
    }
    if safe < chosen {
        (safe, true)
    } else {
        (chosen, false)
    }
}

/// `PowerCapper::admissible_pstate_at_temp` as a bottom-up scan that
/// re-evaluates leakage for every state.
fn admissible_oracle(cap_w: f64, node: &Node, temp_c: f64) -> usize {
    let mut chosen = 0;
    for idx in 0..node.spec().pstates.len() {
        if estimated_power_at_temp(node, idx, temp_c) <= cap_w {
            chosen = idx;
        }
    }
    chosen
}

/// Node states to test on: a process-variation population at inlets
/// from freezing to hotter than any state can survive, each node warmed
/// under load and then cooled, sampled after every step.
fn sample_nodes() -> Vec<Node> {
    let mut nodes = Vec::new();
    for (id, variation) in ProcessVariation::population(2016, 12)
        .into_iter()
        .enumerate()
    {
        for inlet_c in [-10.0, 10.0, 26.0, 36.0, 50.0, 65.0, 80.0, 95.0] {
            let mut node = Node::with_variation(NodeSpec::cineca_xeon(), id, variation);
            node.set_inlet_temp(inlet_c);
            for step in 0..10 {
                nodes.push(node.clone());
                if step < 5 {
                    node.execute(&WorkUnit::compute_bound(8e12));
                } else {
                    node.idle(30.0);
                }
            }
        }
    }
    nodes
}

fn throttles() -> [ThermalThrottle; 3] {
    [
        ThermalThrottle::default_server(),
        ThermalThrottle {
            limit_c: 70.0,
            release_c: 60.0,
        },
        ThermalThrottle {
            limit_c: 100.0,
            release_c: 95.0,
        },
    ]
}

#[test]
fn the_samples_span_the_thermal_range() {
    let nodes = sample_nodes();
    let temps: Vec<f64> = nodes.iter().map(Node::temp_c).collect();
    assert!(temps.iter().any(|t| *t <= 20.0), "a die at or below 20 °C");
    assert!(
        temps.iter().any(|t| *t >= 120.0),
        "a die at or above 120 °C"
    );
    assert!(
        temps.iter().any(|t| (105.0..120.0).contains(t)),
        "a die past the leakage saturation"
    );
    let throttle = ThermalThrottle::default_server();
    assert!(
        temps
            .iter()
            .any(|t| (throttle.release_c..throttle.limit_c).contains(t)),
        "a die inside the hysteresis band"
    );
    let none_safe = |node: &Node| {
        (0..node.spec().pstates.len()).all(|idx| node.steady_temp_at(idx, 1.0) > throttle.limit_c)
    };
    assert!(
        nodes.iter().any(none_safe),
        "an inlet where no state is safe"
    );
    assert!(
        nodes.iter().any(|node| !none_safe(node)),
        "an inlet where some state is safe"
    );
}

#[test]
fn the_clamp_matches_the_bottom_up_scan_for_every_chosen_state() {
    for node in sample_nodes() {
        for throttle in throttles() {
            for chosen in 0..node.spec().pstates.len() {
                assert_eq!(
                    throttle.clamp(&node, chosen),
                    clamp_oracle(&throttle, &node, chosen),
                    "node {} at {} °C, chosen {chosen}, {throttle:?}",
                    node.id(),
                    node.temp_c()
                );
            }
        }
    }
}

#[test]
fn regulate_matches_the_bottom_up_scan() {
    for node in sample_nodes() {
        for throttle in throttles() {
            for current in 0..node.spec().pstates.len() {
                let mut fast = node.clone();
                fast.set_pstate(current);
                let mut slow = fast.clone();
                assert_eq!(
                    throttle.regulate(&mut fast),
                    regulate_oracle(&throttle, &mut slow),
                    "node {} at {} °C from P-state {current}, {throttle:?}",
                    node.id(),
                    node.temp_c()
                );
                assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            }
        }
    }
}

#[test]
fn the_capper_matches_the_bottom_up_scan() {
    let sensed_c = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -273.15,
        -40.0,
        -25.0,
        20.0,
        26.0,
        45.0,
        75.0,
        85.0,
        95.0,
        104.9,
        105.0,
        120.0,
    ];
    for node in sample_nodes().into_iter().step_by(7) {
        // the die's own temperature takes the leakage the node keeps;
        // one ULP either side evaluates it
        let die_c = node.temp_c();
        let around_die = [die_c, die_c.next_down(), die_c.next_up()];
        for temp_c in sensed_c.into_iter().chain(around_die) {
            // the floor, a cap above every state, and each state's own
            // estimate (the tie) with a hair either side
            let mut caps = vec![1.0, 1e6];
            for idx in 0..node.spec().pstates.len() {
                let at = estimated_power_at_temp(&node, idx, temp_c);
                caps.extend([at, at.next_down(), at.next_up()]);
            }
            for cap_w in caps {
                let capper = PowerCapper::new(cap_w);
                assert_eq!(
                    capper.admissible_pstate_at_temp(&node, temp_c),
                    admissible_oracle(cap_w, &node, temp_c),
                    "node {} sensed {temp_c} °C, cap {cap_w} W",
                    node.id()
                );
            }
        }
    }
}

#[test]
fn a_plan_matches_the_bottom_up_scans() {
    for node in sample_nodes().into_iter().step_by(3) {
        for cap_w in [0.0, 150.0, 250.0, 320.0, 1e6] {
            for (region, intensity) in [(RegionKind::Compute, 64.0), (RegionKind::Memory, 0.5)] {
                for raw in [Some(node.temp_c()), None] {
                    let mut ctl = NodeController::new();
                    ctl.set_cap(cap_w);
                    let mut planned = node.clone();
                    let plan = ctl.plan(&mut planned, region, intensity, 0.0, raw);

                    let sensed_c = NodeController::new().sensor.sense(0.0, raw).temp_c;
                    let admissible = admissible_oracle(ctl.cap_w(), &node, sensed_c);
                    let chosen = match region {
                        RegionKind::Compute => admissible,
                        RegionKind::Memory => {
                            crate::cluster_ctrl::memory_floor_pstate(&node, intensity)
                                .min(admissible)
                        }
                    };
                    let expected = if node.temp_c() >= ctl.throttle.release_c {
                        clamp_oracle(&ctl.throttle, &node, chosen)
                    } else {
                        (chosen, false)
                    };
                    assert_eq!((plan.pstate, plan.throttled), expected);
                    assert_eq!(planned.pstate_index(), plan.pstate);
                }
            }
        }
    }
}

/// Limits to test a prediction against: a grid from below the coldest
/// inlet to past the hottest die, the prediction itself and one ULP
/// either side of it, and the non-finite limits.
fn limits_around(predicted_c: f64) -> Vec<f64> {
    let mut limits: Vec<f64> = (-8..=30).map(|step| f64::from(step) * 5.0).collect();
    limits.extend([
        predicted_c,
        predicted_c.next_down(),
        predicted_c.next_up(),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]);
    limits
}

/// `steady_temp_within` against the full fixed point on every sampled
/// node, P-state, activity and limit.
fn assert_within_matches_the_fixed_point(nodes: &[Node]) {
    for node in nodes {
        for idx in 0..node.spec().pstates.len() {
            for activity in [0.0, 0.25, 1.0] {
                let predicted_c = node.steady_temp_at(idx, activity);
                for limit_c in limits_around(predicted_c) {
                    assert_eq!(
                        node.steady_limit(limit_c).steady_temp_within(idx, activity),
                        predicted_c <= limit_c,
                        "node {} at {} °C, P-state {idx}, activity {activity}: \
                         predicted {predicted_c} °C against limit {limit_c} °C",
                        node.id(),
                        node.temp_c()
                    );
                }
            }
        }
    }
}

#[test]
fn the_safety_test_matches_the_full_fixed_point() {
    assert_within_matches_the_fixed_point(&sample_nodes());
}

#[test]
fn a_spec_whose_leakage_falls_with_temperature_takes_the_full_fixed_point() {
    // κ < 1 makes the step map decreasing, where no shortcut holds; a
    // steep κ > 1 drives dies into the leakage saturation
    for kappa in [0.5, 0.9, 1.0, 2.5] {
        let mut spec = NodeSpec::cineca_xeon();
        spec.socket_power.leak_kappa_per_10c = kappa;
        let spec = Arc::new(spec);
        let nodes: Vec<Node> = sample_nodes()
            .into_iter()
            .step_by(5)
            .map(|sampled| {
                let mut node =
                    Node::with_variation(Arc::clone(&spec), sampled.id(), sampled.variation());
                node.set_inlet_temp(sampled.temp_c() - 20.0);
                node.execute(&WorkUnit::compute_bound(4e12));
                node
            })
            .collect();
        assert_within_matches_the_fixed_point(&nodes);
    }
}
