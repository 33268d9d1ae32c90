//! Fault-tolerant cluster-scale control plane.
//!
//! Paper §V calls for "scalable and hierarchical optimal control-loops"
//! over hardware that misbehaves: nodes crash (Weibull fault storms),
//! sensors drop out or freeze, and a hot afternoon degrades the cooling
//! plant so the same facility cap buys less compute. This module
//! composes the resiliency substrate the repo already trusts into a
//! three-level plane, with every level degrading gracefully:
//!
//! 1. **Facility loop** ([`FacilityController`]) — converts the facility
//!    power cap into a usable IT budget through the ambient-dependent
//!    cooling overhead (`sim::cooling`), keeps a guard band for
//!    estimation error, and re-splits the budget across alive nodes by
//!    demand every control step (`powercap::try_weighted_split_observed`).
//! 2. **Job dispatch** ([`campaign`](crate::campaign) runs all three
//!    levels) — crashes reported by `sim::faults` requeue the victim's
//!    job from its last checkpoint (`rtrm::checkpoint` cadence);
//!    re-dispatch onto another node is a migration.
//! 3. **Per-node region capper** ([`NodeController`]) — picks a P-state
//!    per application region following the Chadha/Gerndt DVFS/UFS model:
//!    compute-bound regions run at the fastest cap-admissible state,
//!    memory-bound regions at the slowest state that still sustains the
//!    stream (free energy, no throughput loss). Power is estimated at
//!    the *sensed* junction temperature, never at ground truth: the
//!    telemetry path is hardened by [`SensorChannel`] (stuck-at
//!    detection → hold → EWMA → assume-worst), so a lost or lying sensor
//!    can only make the controller more conservative. Thermal
//!    emergencies clamp locally (on-die protection works even with the
//!    out-of-band telemetry down) before the cluster loop reacts.
//!
//! Every decision is instrumented through `antarex-obs` ([`ClusterObs`]):
//! cap-overshoot integral, migrations, throttle events and
//! sensor-fallback counters land on registry cells shared with the
//! exposition.

use crate::error::{check_budget_w, RtrmError};
use crate::powercap::{try_weighted_split_observed, PowerCapper, PowercapObs};
use crate::thermal_ctrl::ThermalThrottle;
use antarex_monitor::resilient::{Fill, ResilientSensor};
use antarex_obs::{Counter, Gauge, MetricsRegistry, Scope};
use antarex_sim::cooling::CoolingPlant;
use antarex_sim::node::Node;

// ---------------------------------------------------------------------------
// Hardened telemetry channel
// ---------------------------------------------------------------------------

/// How the controller obtained its working temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensedFill {
    /// A trusted fresh reading.
    Fresh,
    /// Reading missing or distrusted; last fresh value held.
    Held,
    /// Outage outlived the hold window; long-term EWMA.
    Ewma,
    /// Nothing usable; the pessimistic default is in force.
    AssumeWorst,
}

/// The controller-side temperature estimate for one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensedTemp {
    /// Working junction temperature, °C — always finite.
    pub temp_c: f64,
    /// Provenance of the value.
    pub fill: SensedFill,
}

/// One node's thermal telemetry channel hardened against dropouts *and*
/// stuck-at (lying) sensors. Dropped readings flow through
/// `monitor::resilient`'s hold → EWMA ladder; a register frozen by
/// firmware repeats the same bit-identical value, which a real junction
/// under varying load essentially never does, so
/// [`SensorChannel::STUCK_TRIP`] consecutive identical readings trip the
/// channel into treating the reading as missing. When the ladder
/// bottoms out the channel reports [`SensorChannel::assume_worst_c`] so
/// the capper over-estimates power and backs off — a dead sensor can
/// only cost throughput, never the cap.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorChannel {
    inner: ResilientSensor,
    last_raw: Option<f64>,
    repeats: u32,
    /// Pessimistic temperature reported when nothing usable is left, °C.
    pub assume_worst_c: f64,
}

impl SensorChannel {
    /// Consecutive bit-identical readings before the channel distrusts
    /// the sensor as stuck.
    pub const STUCK_TRIP: u32 = 3;

    /// A thermal channel: 30 s hold, EWMA α = 0.05, assume-worst 95 °C
    /// (above the throttle limit, so an unsensed node runs conservatively).
    pub fn thermal() -> Self {
        SensorChannel {
            inner: ResilientSensor::thermal(),
            last_raw: None,
            repeats: 0,
            assume_worst_c: 95.0,
        }
    }

    /// Feeds one observation instant; `raw` is `None` when the sensor
    /// dropped out. Always returns a finite working temperature.
    pub fn sense(&mut self, time_s: f64, raw: Option<f64>) -> SensedTemp {
        let distrusted = match (raw, self.last_raw) {
            (Some(v), Some(prev)) if v.to_bits() == prev.to_bits() => {
                self.repeats += 1;
                self.repeats >= Self::STUCK_TRIP
            }
            (Some(_), _) => {
                self.repeats = 0;
                false
            }
            (None, _) => false,
        };
        if raw.is_some() {
            self.last_raw = raw;
        }
        let feed = if distrusted { None } else { raw };
        let estimate = self.inner.observe(time_s, feed);
        match (estimate.value, estimate.fill) {
            (Some(v), Fill::Fresh) => SensedTemp {
                temp_c: v,
                fill: SensedFill::Fresh,
            },
            (Some(v), Fill::Held) => SensedTemp {
                temp_c: v,
                fill: SensedFill::Held,
            },
            (Some(v), Fill::Ewma) => SensedTemp {
                temp_c: v,
                fill: SensedFill::Ewma,
            },
            _ => SensedTemp {
                temp_c: self.assume_worst_c,
                fill: SensedFill::AssumeWorst,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Per-region DVFS policy (Chadha/Gerndt)
// ---------------------------------------------------------------------------

/// The roofline class of the application region a node is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Frequency-sensitive: time ∝ 1/f.
    Compute,
    /// Bandwidth-bound: time is frequency-insensitive above the floor.
    Memory,
}

/// The slowest P-state that still sustains a memory stream of the given
/// arithmetic intensity (flops per byte) at full bandwidth — running any
/// faster buys no throughput and only burns `V²f` power.
pub(crate) fn memory_floor_pstate(node: &Node, intensity_flops_per_byte: f64) -> usize {
    let required_gflops = node.spec().mem_bw_gbs * intensity_flops_per_byte.max(0.0);
    for idx in 0..node.spec().pstates.len() {
        let freq = node.spec().pstates.state(idx).freq_ghz;
        if node.spec().cpu_peak_gflops(freq) >= required_gflops {
            return idx;
        }
    }
    node.spec().pstates.max_index()
}

/// Per-region P-state selection under a power cap, evaluated at the
/// *sensed* temperature: compute regions take the fastest admissible
/// state, memory regions the slowest state sustaining the stream (and
/// never above the admissible one — the cap always wins).
pub(crate) fn region_pstate(
    node: &Node,
    region: RegionKind,
    intensity_flops_per_byte: f64,
    capper: &PowerCapper,
    sensed_temp_c: f64,
) -> usize {
    let admissible = capper.admissible_pstate_at_temp(node, sensed_temp_c);
    match region {
        RegionKind::Compute => admissible,
        RegionKind::Memory => memory_floor_pstate(node, intensity_flops_per_byte).min(admissible),
    }
}

// ---------------------------------------------------------------------------
// Facility loop
// ---------------------------------------------------------------------------

/// The slow outer loop: a facility power cap translated into a usable
/// IT budget through the ambient-dependent cooling overhead, with a
/// guard band absorbing power-estimation error, split across alive
/// nodes by demand.
#[derive(Debug, Clone)]
pub struct FacilityController {
    cap_w: f64,
    plant: CoolingPlant,
    guard: f64,
}

impl FacilityController {
    /// Creates the controller. `guard` is the fraction of the raw IT
    /// budget actually handed to nodes (e.g. 0.97 keeps 3% in reserve
    /// for estimation error); must be in `(0, 1]`.
    pub fn try_new(cap_w: f64, plant: CoolingPlant, guard: f64) -> Result<Self, RtrmError> {
        let cap_w = check_budget_w("facility cap", cap_w)?;
        if !(guard.is_finite() && guard > 0.0 && guard <= 1.0) {
            return Err(RtrmError::InvalidBudget {
                what: "guard band",
                value: guard,
            });
        }
        Ok(FacilityController {
            cap_w,
            plant,
            guard,
        })
    }

    /// Usable IT budget at this ambient, after cooling overhead and the
    /// guard band. Hot afternoons shrink it; the hierarchy re-splits
    /// instead of overshooting.
    pub fn it_budget_w(&self, ambient_c: f64) -> f64 {
        self.plant.it_budget_w(self.cap_w, ambient_c) * self.guard
    }

    /// Facility-side power implied by an IT draw at this ambient
    /// (IT + cooling + distribution) — the quantity compared to the cap.
    pub fn facility_power_w(&self, it_power_w: f64, ambient_c: f64) -> f64 {
        it_power_w * (1.0 + self.plant.overhead_fraction(ambient_c))
    }

    /// One facility control decision: the ambient-shrunk budget split
    /// over `weights` (remaining demand per node; dead nodes weight 0),
    /// recorded on `obs`. `None` when no node is alive to receive it.
    pub fn split(&self, ambient_c: f64, weights: &[f64], obs: &PowercapObs) -> Option<Vec<f64>> {
        let mut shares = Vec::new();
        try_weighted_split_observed(self.it_budget_w(ambient_c), weights, &mut shares, obs)?;
        Some(shares)
    }
}

// ---------------------------------------------------------------------------
// Per-node controller
// ---------------------------------------------------------------------------

/// The fast inner loop's decision for one node and one control step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePlan {
    /// P-state the node was set to.
    pub pstate: usize,
    /// The working temperature estimate the decision used.
    pub sensed: SensedTemp,
    /// Whether a local thermal emergency forced a further clamp below
    /// the cap-chosen state.
    pub throttled: bool,
}

/// One node's controller: hardened telemetry, a region-aware power
/// capper, and a local thermal-emergency clamp that acts *before* the
/// cluster loop can react (on-die protection keeps working when the
/// out-of-band telemetry path is down, so — unlike the capper — it
/// reads the die's own temperature).
#[derive(Debug, Clone)]
pub struct NodeController {
    /// The hardened telemetry channel.
    pub sensor: SensorChannel,
    /// Thermal-emergency parameters.
    pub throttle: ThermalThrottle,
    capper: PowerCapper,
}

impl NodeController {
    /// A controller with default hardening (thermal channel, 85/75 °C
    /// throttle) and a placeholder cap of 1 W (set per step).
    pub fn new() -> Self {
        NodeController {
            sensor: SensorChannel::thermal(),
            throttle: ThermalThrottle::default_server(),
            capper: PowerCapper::new(1.0),
        }
    }

    /// Updates the node's power cap for this step; caps below 1 W are
    /// floored (a zero split share must not panic the capper).
    pub fn set_cap(&mut self, cap_w: f64) {
        let cap_w = if cap_w.is_finite() {
            cap_w.max(1.0)
        } else {
            1.0
        };
        self.capper = PowerCapper::new(cap_w);
    }

    /// The cap currently enforced, watts.
    pub fn cap_w(&self) -> f64 {
        self.capper.cap_w()
    }

    /// One control decision: senses temperature through the hardened
    /// channel, picks the per-region P-state under the cap at the
    /// *sensed* temperature, then applies the local thermal-emergency
    /// clamp (hysteresis: engaged while the die is at or above the
    /// release temperature) and programs the node. The clamp tests the
    /// cap-chosen state first ([`ThermalThrottle`]'s `clamp`), so a hot
    /// die whose chosen state is already safe costs one steady-state
    /// prediction, not one per P-state.
    pub fn plan(
        &mut self,
        node: &mut Node,
        region: RegionKind,
        intensity_flops_per_byte: f64,
        time_s: f64,
        raw_reading: Option<f64>,
    ) -> NodePlan {
        let sensed = self.sensor.sense(time_s, raw_reading);
        let chosen = region_pstate(
            node,
            region,
            intensity_flops_per_byte,
            &self.capper,
            sensed.temp_c,
        );
        let (pstate, throttled) = if node.temp_c() >= self.throttle.release_c {
            self.throttle.clamp(node, chosen)
        } else {
            (chosen, false)
        };
        node.set_pstate(pstate);
        NodePlan {
            pstate,
            sensed,
            throttled,
        }
    }
}

impl Default for NodeController {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Registry cells instrumenting the cluster control plane. All counters
/// are [`Scope::Invariant`]: every decision is a pure function of the
/// virtual-time campaign state, never of worker scheduling.
#[derive(Debug, Clone)]
pub struct ClusterObs {
    /// Node crashes observed by the control plane.
    pub crashes: Counter,
    /// Jobs requeued after losing their node.
    pub requeues: Counter,
    /// Requeued jobs re-dispatched onto a *different* node.
    pub migrations: Counter,
    /// Local thermal-emergency clamps.
    pub throttle_events: Counter,
    /// Sensor estimates served from the hold stage.
    pub sensor_held: Counter,
    /// Sensor estimates served from the EWMA stage.
    pub sensor_ewma: Counter,
    /// Sensor estimates that bottomed out at assume-worst.
    pub sensor_assume_worst: Counter,
    /// Checkpoints written.
    pub checkpoints: Counter,
    /// Jobs run to completion.
    pub completed_jobs: Counter,
    /// Current ambient temperature, °C.
    pub ambient_c: Gauge,
    /// Current usable IT budget, watts.
    pub it_budget_w: Gauge,
    /// Current facility-side power, watts.
    pub facility_power_w: Gauge,
    /// Cap-overshoot integral so far, watt-seconds.
    pub overshoot_ws: Gauge,
}

impl ClusterObs {
    /// Registers the cluster-control metrics on `registry` (idempotent).
    pub fn register(registry: &MetricsRegistry) -> Self {
        let c = |name| registry.counter(name, Scope::Invariant);
        let g = |name| registry.gauge(name, Scope::Invariant);
        ClusterObs {
            crashes: c("rtrm_cluster_crashes_total"),
            requeues: c("rtrm_cluster_requeues_total"),
            migrations: c("rtrm_cluster_migrations_total"),
            throttle_events: c("rtrm_cluster_throttle_events_total"),
            sensor_held: c("rtrm_cluster_sensor_held_total"),
            sensor_ewma: c("rtrm_cluster_sensor_ewma_total"),
            sensor_assume_worst: c("rtrm_cluster_sensor_assume_worst_total"),
            checkpoints: c("rtrm_cluster_checkpoints_total"),
            completed_jobs: c("rtrm_cluster_completed_jobs_total"),
            ambient_c: g("rtrm_cluster_ambient_celsius"),
            it_budget_w: g("rtrm_cluster_it_budget_watts"),
            facility_power_w: g("rtrm_cluster_facility_power_watts"),
            overshoot_ws: g("rtrm_cluster_cap_overshoot_watt_seconds"),
        }
    }

    /// Routes a sensed-fill tag onto the fallback counters.
    pub fn count_fill(&self, fill: SensedFill) {
        match fill {
            SensedFill::Fresh => {}
            SensedFill::Held => self.sensor_held.inc(),
            SensedFill::Ewma => self.sensor_ewma.inc(),
            SensedFill::AssumeWorst => self.sensor_assume_worst.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;

    #[test]
    fn sensor_channel_degradation_ladder() {
        let mut chan = SensorChannel::thermal();
        // never observed: straight to assume-worst
        let first = chan.sense(0.0, None);
        assert_eq!(first.fill, SensedFill::AssumeWorst);
        assert_eq!(first.temp_c, chan.assume_worst_c);
        // fresh readings pass through
        let fresh = chan.sense(1.0, Some(55.0));
        assert_eq!((fresh.temp_c, fresh.fill), (55.0, SensedFill::Fresh));
        // dropout: held within the window ...
        let held = chan.sense(10.0, Some(f64::NAN));
        assert_eq!((held.temp_c, held.fill), (55.0, SensedFill::Held));
        let held = chan.sense(20.0, None);
        assert_eq!((held.temp_c, held.fill), (55.0, SensedFill::Held));
        // ... EWMA once the hold window (30 s) expires
        let ewma = chan.sense(100.0, None);
        assert_eq!(ewma.fill, SensedFill::Ewma);
        assert!(ewma.temp_c.is_finite());
    }

    #[test]
    fn sensor_channel_distrusts_stuck_readings() {
        let mut chan = SensorChannel::thermal();
        chan.sense(0.0, Some(60.0));
        chan.sense(1.0, Some(61.0));
        // the register freezes at 61.0: identical bits repeat
        for i in 0..SensorChannel::STUCK_TRIP {
            chan.sense(2.0 + f64::from(i), Some(61.0));
        }
        // by now the channel treats the frozen value as missing
        let est = chan.sense(10.0, Some(61.0));
        assert_ne!(est.fill, SensedFill::Fresh, "frozen sensor distrusted");
        // a genuinely changing signal re-earns trust
        let est = chan.sense(11.0, Some(62.5));
        assert_eq!(est.fill, SensedFill::Fresh);
    }

    #[test]
    fn memory_regions_pick_the_slowest_sustaining_state() {
        let node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        // a 1/16 flops-per-byte stream needs ~4 GFLOP/s: even the
        // slowest Xeon state sustains it
        assert_eq!(memory_floor_pstate(&node, 1.0 / 16.0), 0);
        // an absurdly compute-heavy "stream" needs the fastest state
        assert_eq!(
            memory_floor_pstate(&node, 1e6),
            node.spec().pstates.max_index()
        );
        let generous = PowerCapper::new(1e6);
        assert_eq!(
            region_pstate(&node, RegionKind::Memory, 1.0 / 16.0, &generous, 60.0),
            0,
            "memory region crawls even under a generous cap"
        );
        assert_eq!(
            region_pstate(&node, RegionKind::Compute, 64.0, &generous, 60.0),
            node.spec().pstates.max_index(),
            "compute region races under a generous cap"
        );
    }

    #[test]
    fn sensed_temperature_drives_the_cap_decision() {
        let node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let mid =
            crate::powercap::estimated_power_at_temp(&node, node.spec().pstates.max_index(), 45.0)
                * 0.85;
        let capper = PowerCapper::new(mid);
        let cool = region_pstate(&node, RegionKind::Compute, 64.0, &capper, 40.0);
        let worst = region_pstate(&node, RegionKind::Compute, 64.0, &capper, 95.0);
        assert!(
            worst <= cool,
            "assume-worst sensing must never pick a faster state ({worst} vs {cool})"
        );
    }

    #[test]
    fn facility_budget_shrinks_on_a_hot_afternoon() {
        let facility =
            FacilityController::try_new(1.5e6, CoolingPlant::european_datacenter(), 0.97)
                .expect("valid facility");
        let cool = facility.it_budget_w(14.0);
        let hot = facility.it_budget_w(33.0);
        assert!(hot < cool * 0.92, "hot {hot:.0} vs cool {cool:.0}");
        // the facility-side power of the same IT draw grows with ambient
        assert!(facility.facility_power_w(1e6, 33.0) > facility.facility_power_w(1e6, 14.0));
        // invalid parameters are typed errors
        assert!(
            FacilityController::try_new(0.0, CoolingPlant::european_datacenter(), 0.97).is_err()
        );
        assert!(
            FacilityController::try_new(1e6, CoolingPlant::european_datacenter(), 0.0).is_err()
        );
        assert!(
            FacilityController::try_new(1e6, CoolingPlant::european_datacenter(), 1.5).is_err()
        );
    }

    #[test]
    fn facility_split_records_decisions_and_survives_dead_cluster() {
        let registry = MetricsRegistry::new();
        let obs = PowercapObs::register(&registry);
        let facility = FacilityController::try_new(1e6, CoolingPlant::european_datacenter(), 1.0)
            .expect("valid facility");
        let split = facility
            .split(20.0, &[2.0, 1.0, 0.0], &obs)
            .expect("three nodes");
        let total: f64 = split.iter().sum();
        assert!((total - facility.it_budget_w(20.0)).abs() < 1e-6);
        assert!(split[0] > split[1]);
        assert_eq!(facility.split(20.0, &[], &obs), None, "all nodes dead");
        let refused = registry.counter("rtrm_power_splits_refused_total", Scope::Invariant);
        assert_eq!(refused.get(), 1);
    }

    #[test]
    fn node_controller_thermal_emergency_clamps_locally() {
        let mut ctl = NodeController::new();
        ctl.set_cap(1e6); // cap never binds in this test
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        node.set_inlet_temp(45.0); // pathological rack
                                   // heat the node past the release threshold
        node.execute(&antarex_sim::job::WorkUnit::compute_bound(5e13));
        assert!(node.temp_c() > ctl.throttle.release_c);
        let reading = node.temp_c();
        let plan = ctl.plan(&mut node, RegionKind::Compute, 64.0, 0.0, Some(reading));
        assert!(plan.throttled, "hot node must be clamped");
        assert!(plan.pstate < node.spec().pstates.max_index());
        // a cool node under the same cap races
        let mut cool = Node::nominal(NodeSpec::cineca_xeon(), 1);
        let mut ctl2 = NodeController::new();
        ctl2.set_cap(1e6);
        let reading2 = cool.temp_c();
        let plan2 = ctl2.plan(&mut cool, RegionKind::Compute, 64.0, 0.0, Some(reading2));
        assert!(!plan2.throttled);
        assert_eq!(plan2.pstate, cool.spec().pstates.max_index());
    }

    #[test]
    fn node_controller_cap_floor_survives_zero_share() {
        let mut ctl = NodeController::new();
        ctl.set_cap(0.0);
        assert_eq!(ctl.cap_w(), 1.0);
        ctl.set_cap(f64::NAN);
        assert_eq!(ctl.cap_w(), 1.0);
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        // an unenforceable 1 W cap degrades to the slowest state, no panic
        let plan = ctl.plan(&mut node, RegionKind::Compute, 64.0, 0.0, Some(40.0));
        assert_eq!(plan.pstate, 0);
    }

    #[test]
    fn cluster_obs_cells_land_on_the_registry() {
        let registry = MetricsRegistry::new();
        let obs = ClusterObs::register(&registry);
        obs.crashes.inc();
        obs.requeues.inc();
        obs.migrations.inc();
        obs.count_fill(SensedFill::Held);
        obs.count_fill(SensedFill::AssumeWorst);
        obs.count_fill(SensedFill::Fresh); // no cell
        obs.ambient_c.set(27.5);
        let exposition = antarex_obs::exposition(&registry.snapshot(None));
        assert!(
            exposition.contains("rtrm_cluster_crashes_total 1"),
            "{exposition}"
        );
        assert!(exposition.contains("rtrm_cluster_migrations_total 1"));
        assert!(exposition.contains("rtrm_cluster_sensor_held_total 1"));
        assert!(exposition.contains("rtrm_cluster_sensor_assume_worst_total 1"));
        assert!(exposition.contains("rtrm_cluster_ambient_celsius 27.5"));
        // idempotent re-registration shares cells
        let again = ClusterObs::register(&registry);
        assert_eq!(again.crashes.get(), 1);
    }
}
