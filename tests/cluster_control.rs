//! Integration: the cluster control plane (`rtrm::cluster_ctrl`) under a
//! heat wave with degraded telemetry — the facility loop never hands out
//! more than the ambient-shrunk IT budget, every node decision respects
//! its cap, a dropped and a stuck sensor channel walk their degradation
//! ladders, and the whole trajectory is a pure function of its inputs,
//! pinned bit for bit by a golden digest (thermal clamps included).
//! The whole storm campaign built on it (`rtrm::campaign`) is pinned
//! the same way.

use antarex::obs::MetricsRegistry;
use antarex::rtrm::campaign::{run_profile, ClusterProfile, ClusterScale};
use antarex::rtrm::cluster_ctrl::{
    FacilityController, NodeController, NodePlan, RegionKind, SensedFill, SensorChannel,
};
use antarex::rtrm::powercap::{estimated_power_at_temp, PowercapObs};
use antarex::sim::cooling::{heat_wave_ambient_c, CoolingPlant};
use antarex::sim::job::WorkUnit;
use antarex::sim::node::{Node, NodeSpec};

const NODES: usize = 6;
const STEPS: usize = 24;
const DT_S: f64 = 10.0;
/// Node whose out-of-band channel is silent at boot, delivers for a
/// while, then drops out for good.
const DROPPED: usize = 1;
/// Steps `DROPPED` delivers a reading in.
const DELIVERS: std::ops::Range<usize> = 2..6;
/// Node whose sensor register freezes from `FREEZE_AT` on.
const STUCK: usize = 4;
const FREEZE_AT: usize = 5;

/// One control step as the operator would log it.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    ambient_c: f64,
    it_budget_w: f64,
    caps_w: Vec<f64>,
    plans: Vec<NodePlan>,
}

/// Steps the two loops through a 14 → 33 °C ramp, asserting the
/// per-step safety properties on the way.
fn heat_wave_run() -> Vec<Step> {
    let facility = FacilityController::try_new(
        NODES as f64 * 260.0,
        CoolingPlant::european_datacenter(),
        0.97,
    )
    .expect("a finite cap and a guard band in (0, 1]");
    let powercap = PowercapObs::register(&MetricsRegistry::new());
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|id| Node::nominal(NodeSpec::cineca_xeon(), id))
        .collect();
    let mut controllers = vec![NodeController::new(); NODES];
    let mut frozen = None;

    let mut steps = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        let time_s = step as f64 * DT_S;
        let ambient_c = heat_wave_ambient_c(time_s, 14.0, 33.0, STEPS as f64 * DT_S * 0.75);
        let it_budget_w = facility.it_budget_w(ambient_c);

        // remaining demand falls at a different rate per node
        let weights: Vec<f64> = (0..NODES)
            .map(|node| (STEPS - step) as f64 * (1.0 + node as f64))
            .collect();
        let caps_w = facility
            .split(ambient_c, &weights, &powercap)
            .expect("every node is alive");
        assert!(
            caps_w.iter().sum::<f64>() <= it_budget_w * (1.0 + 1e-12),
            "step {step}: split {} W exceeds the IT budget {it_budget_w} W at {ambient_c} °C",
            caps_w.iter().sum::<f64>()
        );

        let mut plans = Vec::with_capacity(NODES);
        for (index, (node, controller)) in nodes.iter_mut().zip(&mut controllers).enumerate() {
            controller.set_cap(caps_w[index]);
            let truth_c = node.temp_c();
            let raw = match index {
                DROPPED => DELIVERS.contains(&step).then_some(truth_c),
                STUCK if step >= FREEZE_AT => Some(*frozen.get_or_insert(truth_c)),
                _ => Some(truth_c),
            };
            let (region, intensity, flops) = if index % 2 == 0 {
                (RegionKind::Compute, 64.0, 2e11 * (1.0 + index as f64))
            } else {
                (RegionKind::Memory, 1.0 / 16.0, 5e9 * (1.0 + index as f64))
            };
            let plan = controller.plan(node, region, intensity, time_s, raw);
            assert!(plan.sensed.temp_c.is_finite());
            assert!(
                plan.pstate == 0
                    || estimated_power_at_temp(node, plan.pstate, plan.sensed.temp_c)
                        <= controller.cap_w(),
                "step {step} node {index}: P-state {} draws more than the {} W cap",
                plan.pstate,
                controller.cap_w()
            );
            // a few seconds of work at the planned state: the die keeps
            // warming, so no healthy reading repeats bit for bit
            node.execute(&WorkUnit::with_intensity(flops, intensity));
            plans.push(plan);
        }
        steps.push(Step {
            ambient_c,
            it_budget_w,
            caps_w,
            plans,
        });
    }
    steps
}

fn fills(steps: &[Step], node: usize) -> Vec<SensedFill> {
    steps.iter().map(|s| s.plans[node].sensed.fill).collect()
}

#[test]
fn heat_wave_with_degraded_telemetry_stays_under_every_cap() {
    let steps = heat_wave_run();

    // the afternoon shrinks the budget the facility loop may hand out
    let (first, last) = (&steps[0], &steps[STEPS - 1]);
    assert_eq!((first.ambient_c, last.ambient_c), (14.0, 33.0));
    assert!(last.it_budget_w < first.it_budget_w);

    // the dropped channel: assume-worst until a first reading exists,
    // then fresh, then held inside the hold window, then the EWMA — one
    // stage after the other, never back
    let dropped = fills(&steps, DROPPED);
    let mut stages = dropped.clone();
    stages.dedup();
    assert_eq!(
        stages,
        [
            SensedFill::AssumeWorst,
            SensedFill::Fresh,
            SensedFill::Held,
            SensedFill::Ewma
        ],
        "{dropped:?}"
    );
    let assume_worst_c = SensorChannel::thermal().assume_worst_c;
    assert_eq!(steps[0].plans[DROPPED].sensed.temp_c, assume_worst_c);
    assert_eq!(
        dropped.iter().filter(|f| **f == SensedFill::Fresh).count(),
        DELIVERS.len()
    );

    // the stuck channel: the frozen value is believed until it has
    // repeated STUCK_TRIP times, then treated as missing
    let stuck = fills(&steps, STUCK);
    let trip_at = FREEZE_AT + SensorChannel::STUCK_TRIP as usize;
    assert!(stuck[..trip_at].iter().all(|f| *f == SensedFill::Fresh));
    assert!(
        stuck[trip_at..].iter().all(|f| *f != SensedFill::Fresh),
        "{stuck:?}"
    );

    // healthy channels never degrade
    for node in (0..NODES).filter(|n| *n != DROPPED && *n != STUCK) {
        assert!(fills(&steps, node).iter().all(|f| *f == SensedFill::Fresh));
    }
}

#[test]
fn the_control_trajectory_is_a_pure_function_of_its_inputs() {
    assert_eq!(heat_wave_run(), heat_wave_run());
}

/// 64-bit FNV-1a over a trajectory: every f64 by its bits, every plan's
/// P-state, fill and throttle flag.
fn trajectory_digest(steps: &[Step]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for step in steps {
        eat(step.ambient_c.to_bits());
        eat(step.it_budget_w.to_bits());
        for cap in &step.caps_w {
            eat(cap.to_bits());
        }
        for plan in &step.plans {
            eat(plan.pstate as u64);
            eat(plan.sensed.temp_c.to_bits());
            eat(plan.sensed.fill as u64);
            eat(u64::from(plan.throttled));
        }
    }
    hash
}

/// [`trajectory_digest`] of [`heat_wave_run`], captured from the build
/// before the thermal clamp and the capper scanned top-down.
const GOLDEN: u64 = 0xa049_fea5_c064_35da;

#[test]
fn the_control_trajectory_is_pinned_bit_for_bit() {
    let steps = heat_wave_run();
    let throttled = steps
        .iter()
        .flat_map(|s| &s.plans)
        .filter(|p| p.throttled)
        .count();
    assert!(throttled > 0, "the run must reach the thermal clamp");
    assert_eq!(
        trajectory_digest(&steps),
        GOLDEN,
        "a P-state, cap, sensed value or throttle flag moved"
    );
}

/// The whole storm campaign at the tiny scale, pinned at one and two
/// workers to the digests `run_profile` gave while it lived in the
/// experiments crate: the fault-tolerant hierarchy, and the flat
/// baseline whose one global P-state comes from the node capper.
#[test]
fn the_storm_campaign_is_pinned_bit_for_bit() {
    let scale = ClusterScale::tiny();
    for workers in [1, 2] {
        let digest = |profile| run_profile(42, &scale, profile, workers).digest;
        assert_eq!(
            digest(ClusterProfile::FaultTolerant),
            0x52eb_c753_b64f_d956,
            "fault_tolerant, {workers} workers"
        );
        assert_eq!(
            digest(ClusterProfile::Flat),
            0x83c7_bae1_ecf2_55ee,
            "flat, {workers} workers"
        );
    }
}
