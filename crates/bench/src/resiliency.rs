//! Experiment R1: the fault-injection campaign.
//!
//! Exercises the cross-layer resiliency stack end to end on the
//! simulated platform: deterministic fault schedules
//! (`antarex_sim::faults`) drive three sub-experiments —
//!
//! 1. **Checkpoint/restart** — a fixed batch of work on a small
//!    cluster, swept over fault rate × checkpoint policy (none /
//!    fixed interval / Daly-optimal) × governor, reporting wall clock,
//!    wasted-work fraction, and energy overhead relative to the
//!    fault-free run of the same governor.
//! 2. **Sensor-loss-tolerant thermal control** — a DVFS controller
//!    chasing a junction-temperature limit through an ambient swing,
//!    with its only sensor suffering dropouts and stuck-at faults; a
//!    naive consumer (acts on whatever arrives, holds blindly on
//!    nothing) against [`ResilientSensor`]'s
//!    hold-then-EWMA-then-assume-worst estimates.
//! 3. **CADA safe mode** — an exploring tuner loop hit by gray-slowdown
//!    episodes that inflate latency; [`SafeModeGuard`]
//!    falls back to the last known-good configuration after
//!    consecutive SLA violations, against a guard-less explorer.
//!
//! Everything is seeded: the same seed reproduces the identical report,
//! byte for byte (the determinism test relies on it).

use antarex_monitor::{Fill, ResilientSensor, Sla};
use antarex_rtrm::checkpoint::{crash_source, run_to_completion, CheckpointPolicy};
use antarex_rtrm::governor::{Governor, GovernorKind};
use antarex_sim::faults::{FaultConfig, FaultSchedule, SensorEffect};
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_tuner::knob::KnobValue;
use antarex_tuner::safemode::{SafeModeAction, SafeModeGuard};
use antarex_tuner::Configuration;
use std::fmt::Write as _;

/// Size of one campaign run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CampaignScale {
    /// Nodes in the simulated cluster.
    pub nodes: usize,
    /// Work units of 1 TFLOP each per run.
    pub work_units: usize,
    /// Control horizon of the sensor/safe-mode parts, seconds.
    pub control_horizon_s: f64,
}

impl CampaignScale {
    /// The full campaign printed by the `r1` experiment.
    pub(crate) fn full() -> Self {
        CampaignScale {
            nodes: 16,
            work_units: 2048,
            control_horizon_s: 4.0 * 3600.0,
        }
    }
}

/// One row of the checkpoint sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointRow {
    /// Fault-rate multiplier (0 = fault-free).
    pub fault_rate: f64,
    /// Policy label (`none`, `fixed`, `daly`).
    pub policy: &'static str,
    /// Governor name.
    pub governor: &'static str,
    /// Total wall clock, seconds.
    pub wall_clock_s: f64,
    /// Wasted work as a fraction of useful work.
    pub wasted_fraction: f64,
    /// Energy overhead vs the fault-free run of this governor.
    pub energy_overhead: f64,
    /// Crashes survived.
    pub restarts: usize,
}

/// Checkpoint/restart sweep: fault rate × policy × governor.
pub(crate) fn checkpoint_sweep(seed: u64, scale: CampaignScale) -> Vec<CheckpointRow> {
    let unit = WorkUnit::compute_bound(1e12);
    let ckpt_cost_s = 30.0;
    let restart_s = 60.0;
    let mut rows = Vec::new();
    for kind in [GovernorKind::Performance, GovernorKind::EnergyOptimal] {
        // characterize this governor's operating point once
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let mut governor = Governor::new(kind);
        let idx = governor.select(&node, Some(&unit));
        node.set_pstate(idx);
        let outcome = node.execute(&unit);
        let work_s = outcome.time_s * scale.work_units as f64;
        let power_w = outcome.avg_power_w;
        let fault_free_energy_j = power_w * work_s * scale.nodes as f64;
        let horizon_s = work_s * 10.0;
        for fault_rate in [0.0, 1.0, 4.0] {
            let schedule = FaultSchedule::generate(
                &FaultConfig::exascale(seed, fault_rate),
                scale.nodes,
                horizon_s,
            );
            let crashes = schedule.any_crash_between(0.0, horizon_s);
            let cluster_mtbf_s = if fault_rate == 0.0 {
                f64::INFINITY
            } else {
                FaultConfig::exascale(seed, fault_rate).node_mtbf_s / scale.nodes as f64
            };
            let policies: [(&'static str, CheckpointPolicy); 3] = [
                ("none", CheckpointPolicy::none(restart_s)),
                (
                    "fixed-600s",
                    CheckpointPolicy::every(600.0, ckpt_cost_s, restart_s),
                ),
                (
                    "daly",
                    if cluster_mtbf_s.is_finite() {
                        CheckpointPolicy::daly(cluster_mtbf_s, ckpt_cost_s, restart_s)
                    } else {
                        // no faults: checkpointing is pure overhead, the
                        // optimal interval diverges — use none
                        CheckpointPolicy::none(restart_s)
                    },
                ),
            ];
            for (label, policy) in policies {
                let run = run_to_completion(work_s, policy, crash_source(crashes.clone()));
                let energy_j = power_w * run.wall_clock_s * scale.nodes as f64;
                rows.push(CheckpointRow {
                    fault_rate,
                    policy: label,
                    governor: kind.name(),
                    wall_clock_s: run.wall_clock_s,
                    wasted_fraction: run.wasted_work_s / work_s,
                    energy_overhead: energy_j / fault_free_energy_j - 1.0,
                    restarts: run.restarts,
                });
            }
        }
    }
    rows
}

/// One row of the thermal-control comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThermalRow {
    /// Fault-rate multiplier.
    pub fault_rate: f64,
    /// Consumer label (`naive` or `resilient`).
    pub consumer: &'static str,
    /// Thermal-SLA violation rate over the horizon.
    pub violation_rate: f64,
    /// Mean P-state index held (throughput proxy; higher is faster).
    pub mean_pstate: f64,
}

/// Per-P-state self-heating of the toy thermal plant, °C above ambient.
const HEAT_C: [f64; 8] = [30.0, 34.0, 38.0, 42.0, 46.0, 50.0, 54.0, 58.0];
const LIMIT_C: f64 = 80.0;
const MARGIN_C: f64 = 1.0;

fn ambient_c(t: f64) -> f64 {
    30.0 + 10.0 * (2.0 * std::f64::consts::PI * t / 1800.0).sin()
}

fn admissible_pstate(ambient: f64) -> usize {
    HEAT_C
        .iter()
        .rposition(|h| ambient + h <= LIMIT_C - MARGIN_C)
        .unwrap_or(0)
}

/// Thermal control under sensor loss: naive vs resilient consumption of
/// a faulty temperature sensor. The true junction temperature is
/// `ambient(t) + HEAT[pstate]`; the SLA is `temp <= 80 °C`.
pub(crate) fn thermal_control_run(
    seed: u64,
    fault_rate: f64,
    resilient: bool,
    horizon_s: f64,
) -> ThermalRow {
    let mut config = FaultConfig::none(seed);
    if fault_rate > 0.0 {
        // sensor faults only, long enough for the ambient to move
        // underneath a blind or frozen controller
        config.sensor_mtbf_s = 3600.0 / fault_rate;
        config.sensor_outage_s = 180.0;
        config.stuck_fraction = 0.5;
    }
    let schedule = FaultSchedule::generate(&config, 1, horizon_s);
    let mut sensor = ResilientSensor::thermal();
    let mut sla = Sla::upper_bound("junction", LIMIT_C);
    let mut pstate = admissible_pstate(ambient_c(0.0));
    let mut pstate_sum = 0.0;
    let mut steps = 0u64;
    let tick = 10.0;
    let mut t = 0.0;
    while t < horizon_s {
        let true_temp = ambient_c(t) + HEAT_C[pstate];
        sla.check(t, true_temp);
        // what the sensor delivers this tick
        let raw = match schedule.sensor_effect(0, t) {
            SensorEffect::Ok => Some(true_temp),
            SensorEffect::Dropped => None,
            SensorEffect::StuckSince(t0) => {
                // the register froze at whatever was true then; the
                // monitor's freeze detector (identical consecutive
                // samples) flags it, so the resilient path treats it
                // as missing while the naive path consumes it
                let frozen = ambient_c(t0) + HEAT_C[pstate];
                if resilient {
                    None
                } else {
                    Some(frozen)
                }
            }
        };
        // control: infer ambient from the estimate, pick the fastest
        // admissible P-state. The naive consumer acts on whatever
        // arrives (including a frozen value) and blindly holds on
        // nothing; the resilient one runs the estimate through the
        // hardened channel and backs off one P-state whenever the
        // estimate is not fresh — degrade gracefully under uncertainty.
        if resilient {
            let e = sensor.observe(t, raw);
            let (temp, penalty) = match e.fill {
                Fill::Fresh => (e.value.expect("fresh has a value"), 0),
                Fill::Held | Fill::Ewma => (e.value.expect("seen before"), 1),
                Fill::Unavailable => (LIMIT_C, 0), // assume the worst
            };
            let inferred_ambient = temp - HEAT_C[pstate];
            pstate = admissible_pstate(inferred_ambient).saturating_sub(penalty);
        } else if let Some(temp) = raw {
            let inferred_ambient = temp - HEAT_C[pstate];
            pstate = admissible_pstate(inferred_ambient);
        }
        pstate_sum += pstate as f64;
        steps += 1;
        t += tick;
    }
    ThermalRow {
        fault_rate,
        consumer: if resilient { "resilient" } else { "naive" },
        violation_rate: sla.report().violation_rate(),
        mean_pstate: pstate_sum / steps as f64,
    }
}

/// One row of the safe-mode comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SafeModeRow {
    /// Fault-rate multiplier.
    pub fault_rate: f64,
    /// Controller label (`explorer` or `safe-mode`).
    pub controller: &'static str,
    /// SLA violation rate across rounds.
    pub violation_rate: f64,
    /// Times the guard tripped (0 for the plain explorer).
    pub trips: u64,
    /// Mean quality (alternatives knob) across rounds.
    pub mean_quality: f64,
}

fn quality_config(alternatives: i64) -> Configuration {
    let mut c = Configuration::new();
    c.set("alternatives", KnobValue::Int(alternatives));
    c
}

/// Tuner exploration through gray-slowdown episodes, with and without
/// the safe-mode guard. Latency of a round is
/// `0.05 s × alternatives × slowdown(t)`; the SLA is `latency <= 0.5 s`,
/// so at the 2× episode slowdown only quality levels up to 5 survive —
/// exactly the configurations the guard has qualified as known-good
/// right before a trip.
pub(crate) fn safemode_run(
    seed: u64,
    fault_rate: f64,
    guarded: bool,
    horizon_s: f64,
) -> SafeModeRow {
    let mut config = FaultConfig::none(seed);
    if fault_rate > 0.0 {
        config.gray_mtbf_s = 4.0 * 3600.0 / fault_rate;
        config.gray_slowdown = 2.0;
        config.gray_duration_s = 600.0;
    }
    let schedule = FaultSchedule::generate(&config, 1, horizon_s);
    let mut guard = SafeModeGuard::new(3, 8);
    let mut sla = Sla::upper_bound("latency", 0.5);
    let round_s = 30.0;
    let mut alternatives: i64 = 1;
    let mut held: Option<i64> = None; // safe-mode override
    let mut quality_sum = 0.0;
    let mut rounds = 0u64;
    let mut t = 0.0;
    while t < horizon_s {
        let active = held.unwrap_or(alternatives);
        let latency_s = 0.05 * active as f64 * schedule.slowdown(0, t);
        let ok = sla.check(t, latency_s);
        quality_sum += active as f64;
        rounds += 1;
        if guarded {
            match guard.record_round(ok, &quality_config(active)) {
                SafeModeAction::Engage(good) => {
                    held = Some(good.get_int("alternatives").unwrap_or(1));
                }
                SafeModeAction::Release => held = None,
                SafeModeAction::Normal | SafeModeAction::Hold => {}
            }
        }
        if held.is_none() {
            // explore: sweep the quality knob up, wrap after the top
            alternatives = if alternatives >= 8 {
                1
            } else {
                alternatives + 1
            };
        }
        t += round_s;
    }
    SafeModeRow {
        fault_rate,
        controller: if guarded { "safe-mode" } else { "explorer" },
        violation_rate: sla.report().violation_rate(),
        trips: guard.trips(),
        mean_quality: quality_sum / rounds as f64,
    }
}

/// Renders the full campaign for a seed and scale.
pub(crate) fn campaign_report(seed: u64, scale: CampaignScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault model: Weibull crashes (k=0.7), sensor dropouts/stuck-at,\n\
         power spikes, link degradation, gray slowdowns; seed {seed}"
    );

    let _ = writeln!(
        out,
        "\n-- checkpoint/restart: {} nodes, {} TFLOP units, cost 30 s, restart 60 s",
        scale.nodes, scale.work_units
    );
    let _ = writeln!(
        out,
        "{:<15} {:>5} {:<11} {:>10} {:>9} {:>9} {:>9}",
        "governor", "rate", "policy", "wall [s]", "wasted", "energy+", "restarts"
    );
    for row in checkpoint_sweep(seed, scale) {
        let _ = writeln!(
            out,
            "{:<15} {:>5.1} {:<11} {:>10.0} {:>8.1}% {:>8.1}% {:>9}",
            row.governor,
            row.fault_rate,
            row.policy,
            row.wall_clock_s,
            row.wasted_fraction * 100.0,
            row.energy_overhead * 100.0,
            row.restarts
        );
    }

    let _ = writeln!(
        out,
        "\n-- thermal control under sensor loss (limit {LIMIT_C} deg C, tick 10 s)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<10} {:>15} {:>13}",
        "rate", "consumer", "violation rate", "mean P-state"
    );
    for fault_rate in [0.0, 4.0] {
        for resilient in [false, true] {
            let row = thermal_control_run(seed, fault_rate, resilient, scale.control_horizon_s);
            let _ = writeln!(
                out,
                "{:<6.1} {:<10} {:>14.1}% {:>13.2}",
                row.fault_rate,
                row.consumer,
                row.violation_rate * 100.0,
                row.mean_pstate
            );
        }
    }

    let _ = writeln!(
        out,
        "\n-- CADA safe mode through gray-slowdown episodes (SLA 0.5 s)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<10} {:>15} {:>6} {:>13}",
        "rate", "controller", "violation rate", "trips", "mean quality"
    );
    for fault_rate in [0.0, 4.0] {
        for guarded in [false, true] {
            let row = safemode_run(seed, fault_rate, guarded, scale.control_horizon_s);
            let _ = writeln!(
                out,
                "{:<6.1} {:<10} {:>14.1}% {:>6} {:>13.2}",
                row.fault_rate,
                row.controller,
                row.violation_rate * 100.0,
                row.trips,
                row.mean_quality
            );
        }
    }
    let _ = writeln!(
        out,
        "resiliency: checkpointing bounds wasted work, the hardened sensor\n\
         path holds the thermal SLA, and safe mode caps violation streaks"
    );
    out
}

/// R1: the full fault campaign.
pub(crate) fn r1_fault_campaign() -> String {
    campaign_report(101, CampaignScale::full())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid small enough for `cargo test`.
    const TINY: CampaignScale = CampaignScale {
        nodes: 4,
        work_units: 8,
        control_horizon_s: 1800.0,
    };

    #[test]
    fn campaign_is_deterministic() {
        let a = campaign_report(7, TINY);
        let b = campaign_report(7, TINY);
        assert_eq!(a, b, "same seed must render byte-identical reports");
        let c = campaign_report(8, TINY);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn zero_fault_rate_has_no_resiliency_cost_for_none_policy() {
        let rows = checkpoint_sweep(5, TINY);
        for row in rows.iter().filter(|r| r.fault_rate == 0.0) {
            assert_eq!(row.restarts, 0);
            assert_eq!(row.wasted_fraction, 0.0);
            if row.policy == "none" || row.policy == "daly" {
                assert!(
                    row.energy_overhead.abs() < 1e-9,
                    "fault-free {} run must match the baseline exactly",
                    row.policy
                );
            }
        }
    }

    #[test]
    fn checkpointing_reduces_waste_under_faults() {
        let rows = checkpoint_sweep(5, TINY);
        for governor in ["performance", "energy-optimal"] {
            for rate in [1.0, 4.0] {
                let get = |policy: &str| {
                    rows.iter()
                        .find(|r| {
                            r.governor == governor && r.fault_rate == rate && r.policy == policy
                        })
                        .expect("row present")
                };
                let none = get("none");
                let daly = get("daly");
                if none.restarts > 0 {
                    assert!(
                        daly.wasted_fraction <= none.wasted_fraction,
                        "daly must not waste more than restart-from-zero \
                         ({governor}, rate {rate})"
                    );
                    assert!(daly.wall_clock_s <= none.wall_clock_s);
                }
            }
        }
    }

    #[test]
    fn resilient_sensor_holds_thermal_sla() {
        let horizon = 1800.0;
        let naive = thermal_control_run(11, 6.0, false, horizon);
        let resilient = thermal_control_run(11, 6.0, true, horizon);
        assert!(
            resilient.violation_rate <= naive.violation_rate,
            "resilient {} vs naive {}",
            resilient.violation_rate,
            naive.violation_rate
        );
        // fault-free: both consumers behave identically
        let a = thermal_control_run(11, 0.0, false, horizon);
        let b = thermal_control_run(11, 0.0, true, horizon);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_pstate, b.mean_pstate);
    }

    #[test]
    fn safemode_reduces_violations_under_faults() {
        let horizon = 3600.0;
        let plain = safemode_run(13, 6.0, false, horizon);
        let guarded = safemode_run(13, 6.0, true, horizon);
        assert!(plain.violation_rate > 0.0, "episodes must cause violations");
        assert!(
            guarded.violation_rate < plain.violation_rate,
            "guarded {} vs plain {}",
            guarded.violation_rate,
            plain.violation_rate
        );
        assert!(guarded.trips > 0);
        // fault-free: the guard stays out of the way
        let free = safemode_run(13, 0.0, true, horizon);
        assert_eq!(free.trips, 0);
        assert_eq!(free.violation_rate, 0.0);
    }

    #[test]
    fn campaign_smoke_tiny_grid() {
        let report = campaign_report(3, TINY);
        assert!(report.contains("checkpoint/restart"));
        assert!(report.contains("thermal control"));
        assert!(report.contains("safe mode"));
    }

    #[test]
    #[ignore = "full-scale campaign; run with cargo test -- --ignored"]
    fn full_campaign_runs() {
        let report = r1_fault_campaign();
        assert!(report.contains("daly"));
    }
}
