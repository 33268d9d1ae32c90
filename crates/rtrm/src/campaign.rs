//! The cluster campaign: the control loop of [`crate::cluster_ctrl`] run
//! whole on virtual time. A cluster serves a batch queue through Weibull
//! node crashes, sensor dropouts and stuck-at telemetry, and a heat wave
//! that shrinks the IT power a facility cap buys; each [`ClusterProfile`]
//! shows what one defence is worth. A run is worker-invariant: nodes
//! step on scoped threads over disjoint slot chunks, every cross-node
//! reduction runs in node-index order, and the FNV-1a digest over the
//! facility-power trajectory and final state is byte-identical at any
//! worker count.

use crate::checkpoint::daly_interval_s;
use crate::cluster_ctrl::{ClusterObs, FacilityController, NodeController, RegionKind, SensedFill};
use crate::powercap::{
    estimated_power_at_temp, try_weighted_split_observed, PowerCapper, PowercapObs,
};
use crate::Fnv;
use antarex_obs::{MetricValue, MetricsRegistry, Scope};
use antarex_sim::cooling::{heat_wave_ambient_c, CoolingPlant};
use antarex_sim::faults::{FaultConfig, FaultSchedule, SensorEffect};
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::variability::ProcessVariation;
use std::collections::VecDeque;
use std::sync::Arc;

/// Estimated draw of an alive idle node the facility loop reserves
/// before splitting the budget across running nodes, watts.
const IDLE_RESERVE_W: f64 = 95.0;

/// Fraction of the raw IT budget handed to nodes (the rest absorbs
/// power-estimation error).
const GUARD_BAND: f64 = 0.97;

/// Arithmetic intensity of compute-bound regions, flops per byte.
const COMPUTE_INTENSITY: f64 = 64.0;

/// Arithmetic intensity of memory-bound regions, flops per byte.
const MEMORY_INTENSITY: f64 = 1.0 / 16.0;

/// Campaign sizing knobs.
#[derive(Debug, Clone)]
pub struct ClusterScale {
    /// Cluster size.
    pub nodes: usize,
    /// Virtual horizon, seconds.
    pub horizon_s: f64,
    /// Control step, seconds.
    pub dt_s: f64,
    /// Jobs in the batch queue at t = 0.
    pub jobs: usize,
    /// Nominal job duration at the fastest P-state, seconds.
    pub job_duration_s: f64,
    /// Storm intensity multiplier for [`FaultConfig::exascale`].
    pub crash_rate: f64,
    /// Checkpoint write cost, seconds.
    pub ckpt_cost_s: f64,
    /// Facility power cap (IT + cooling + distribution), watts.
    pub facility_cap_w: f64,
    /// Morning ambient, °C.
    pub ambient_start_c: f64,
    /// Afternoon peak ambient, °C.
    pub ambient_peak_c: f64,
}

/// A facility cap that forces mild throttling: 92% of the full-load
/// facility draw (every node at the fastest P-state, hot junction) at
/// the cool-morning cooling overhead.
fn default_facility_cap_w(nodes: usize) -> f64 {
    let probe = Node::nominal(NodeSpec::cineca_xeon(), 0);
    let it_full_w =
        estimated_power_at_temp(&probe, probe.spec().pstates.max_index(), 75.0) * nodes as f64;
    let plant = CoolingPlant::european_datacenter();
    0.92 * it_full_w * (1.0 + plant.overhead_fraction(14.0))
}

impl ClusterScale {
    /// The headline scale: 4096 nodes, two virtual hours, a storm that
    /// crashes each node every ~3 h MTBF.
    pub fn full() -> Self {
        ClusterScale {
            nodes: 4096,
            horizon_s: 7200.0,
            dt_s: 30.0,
            jobs: 10240,
            job_duration_s: 2400.0,
            crash_rate: 2.0,
            ckpt_cost_s: 2.0,
            facility_cap_w: default_facility_cap_w(4096),
            ambient_start_c: 14.0,
            ambient_peak_c: 33.0,
        }
    }

    /// A seconds-fast scale for the experiment report and unit tests,
    /// with the storm proportionally harsher so every defence still
    /// fires.
    pub fn tiny() -> Self {
        ClusterScale {
            nodes: 64,
            horizon_s: 1800.0,
            dt_s: 30.0,
            jobs: 160,
            job_duration_s: 600.0,
            crash_rate: 8.0,
            ckpt_cost_s: 2.0,
            facility_cap_w: default_facility_cap_w(64),
            ambient_start_c: 14.0,
            ambient_peak_c: 33.0,
        }
    }

    /// Per-node crash MTBF implied by the storm rate, seconds.
    pub fn node_mtbf_s(&self) -> f64 {
        6.0 * 3600.0 / self.crash_rate
    }
}

/// The storm: node crashes and sensor faults only — power spikes, link
/// and gray failures are other experiments' business (R1/R2).
pub fn storm_config(seed: u64, rate: f64) -> FaultConfig {
    let mut config = FaultConfig::exascale(seed, rate);
    config.power_spike_mtbf_s = 0.0;
    config.link_mtbf_s = 0.0;
    config.gray_mtbf_s = 0.0;
    config.corrupt_mtbf_s = 0.0;
    config
}

/// Which stack runs the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterProfile {
    /// Full hierarchy, storm off — the goodput denominator.
    FaultFree,
    /// Full hierarchy under the storm.
    FaultTolerant,
    /// Hierarchy without checkpoints: crashes restart jobs from zero.
    NoCheckpoint,
    /// One global P-state from a cool-morning estimate, ambient-blind
    /// budget, no per-node adaptation.
    Flat,
}

impl ClusterProfile {
    /// Stable identifier used in reports and JSON.
    fn name(self) -> &'static str {
        match self {
            ClusterProfile::FaultFree => "fault_free",
            ClusterProfile::FaultTolerant => "fault_tolerant",
            ClusterProfile::NoCheckpoint => "no_checkpoint",
            ClusterProfile::Flat => "flat",
        }
    }
}

#[derive(Debug, Clone)]
struct RunningJob {
    id: usize,
    total_flops: f64,
    done_flops: f64,
    ckpt_flops: f64,
    since_ckpt_s: f64,
    intensity: f64,
    region: RegionKind,
}

#[derive(Debug, Clone, Copy)]
struct PendingJob {
    id: usize,
    done_flops: f64,
    prev_node: Option<usize>,
}

/// One node's slice of campaign state. The parallel phase mutates each
/// slot independently; everything cross-slot happens sequentially.
struct NodeSlot {
    index: usize,
    node: Node,
    ctl: NodeController,
    running: Option<RunningJob>,
    stuck_frozen: Option<f64>,
    alive: bool,
    // per-step outputs, consumed by the sequential merge
    step_energy_j: f64,
    step_throttled: bool,
    step_fill: Option<SensedFill>,
    step_ckpt: bool,
    step_completed: Option<RunningJob>,
}

fn job_shape(id: usize, spec: &NodeSpec, duration_s: f64) -> (f64, f64, RegionKind) {
    if id % 4 == 3 {
        // memory-bound: rate is bandwidth-limited and frequency-blind
        let rate = spec.mem_bw_gbs * 1e9 * MEMORY_INTENSITY;
        (rate * duration_s, MEMORY_INTENSITY, RegionKind::Memory)
    } else {
        let rate = spec.cpu_peak_gflops(spec.pstates.fastest().freq_ghz) * 1e9;
        (rate * duration_s, COMPUTE_INTENSITY, RegionKind::Compute)
    }
}

/// Roofline execution rate at a P-state for a given intensity, flops/s.
fn exec_rate_flops_s(spec: &NodeSpec, pstate_index: usize, intensity: f64) -> f64 {
    let compute = spec.cpu_peak_gflops(spec.pstates.state(pstate_index).freq_ghz) * 1e9;
    let memory = spec.mem_bw_gbs * 1e9 * intensity;
    compute.min(memory)
}

/// Everything a profile run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOutcome {
    /// Profile identifier.
    pub profile: &'static str,
    /// Useful work retained at the horizon, flops (completed + partial
    /// minus everything rolled back).
    pub goodput_flops: f64,
    /// Jobs run to completion.
    pub completed_jobs: u64,
    /// Worst single-step facility-cap overshoot, as a fraction of the cap.
    pub peak_overshoot_frac: f64,
    /// Cap-overshoot integral, watt-seconds.
    pub overshoot_ws: f64,
    /// Node crashes the control plane absorbed.
    pub crashes: u64,
    /// Jobs requeued after losing their node.
    pub requeues: u64,
    /// Requeued jobs re-dispatched onto a different node.
    pub migrations: u64,
    /// Local thermal-emergency clamps.
    pub throttle_events: u64,
    /// Sensor estimates served from hold / EWMA / assume-worst.
    pub sensor_fallbacks: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total IT energy, joules.
    pub energy_j: f64,
    /// FNV-1a digest of the facility-power trajectory and final state.
    pub digest: u64,
}

/// Runs one profile of the campaign on `workers` threads. The outcome —
/// including the digest — is byte-identical for any `workers >= 1`.
///
/// # Panics
///
/// Panics when `workers` is zero.
pub fn run_profile(
    seed: u64,
    scale: &ClusterScale,
    profile: ClusterProfile,
    workers: usize,
) -> ProfileOutcome {
    assert!(workers > 0, "at least one worker is required");
    let mut cluster = Cluster::build(seed, scale, profile);
    let steps = (scale.horizon_s / scale.dt_s).round() as usize;
    let ramp_s = 0.6 * scale.horizon_s;
    for step in 0..steps {
        let t = step as f64 * scale.dt_s;
        let ambient = heat_wave_ambient_c(t, scale.ambient_start_c, scale.ambient_peak_c, ramp_s);
        cluster.absorb_crashes(t);
        cluster.dispatch();
        cluster.split_budget(ambient);
        cluster.step_nodes(t, workers);
        cluster.merge(ambient);
    }
    cluster.finish(profile)
}

/// One profile run in progress: what a control step's phases share.
struct Cluster<'a> {
    scale: &'a ClusterScale,
    /// The one spec every node shares.
    spec: Arc<NodeSpec>,
    facility: FacilityController,
    schedule: FaultSchedule,
    registry: MetricsRegistry,
    obs: ClusterObs,
    pc_obs: PowercapObs,
    ckpt_interval_s: f64,
    flat_pstate: Option<usize>,
    slots: Vec<NodeSlot>,
    /// The facility split's demand weights, one per slot, kept from one
    /// control step to the next.
    weights: Vec<f64>,
    queue: VecDeque<PendingJob>,
    completed_flops: f64,
    overshoot_ws: f64,
    peak_overshoot_frac: f64,
    digest: Fnv,
}

impl<'a> Cluster<'a> {
    fn build(seed: u64, scale: &'a ClusterScale, profile: ClusterProfile) -> Self {
        let spec = Arc::new(NodeSpec::cineca_xeon());
        let plant = CoolingPlant::european_datacenter();
        let fault_config = match profile {
            ClusterProfile::FaultFree => FaultConfig::none(seed),
            _ => storm_config(seed, scale.crash_rate),
        };
        // the flat baseline's one decision: the capper's pick for node
        // 0's cool-morning estimate against an ambient-blind uniform share
        let flat_pstate = (profile == ClusterProfile::Flat).then(|| {
            let probe = Node::nominal(Arc::clone(&spec), 0);
            let share = scale.facility_cap_w
                / (1.0 + plant.overhead_fraction(scale.ambient_start_c))
                / scale.nodes as f64;
            PowerCapper::try_new(share).map_or(0, |capper| {
                capper.admissible_pstate_at_temp(&probe, probe.temp_c())
            })
        });
        let registry = MetricsRegistry::new();
        Cluster {
            scale,
            facility: FacilityController::try_new(scale.facility_cap_w, plant, GUARD_BAND)
                .expect("valid facility configuration"),
            schedule: FaultSchedule::generate(&fault_config, scale.nodes, scale.horizon_s),
            obs: ClusterObs::register(&registry),
            pc_obs: PowercapObs::register(&registry),
            registry,
            ckpt_interval_s: match profile {
                ClusterProfile::NoCheckpoint => f64::INFINITY,
                _ => daly_interval_s(scale.node_mtbf_s(), scale.ckpt_cost_s),
            },
            flat_pstate,
            slots: ProcessVariation::population(seed ^ 0xA5A5_0F0F, scale.nodes)
                .into_iter()
                .enumerate()
                .map(|(index, variation)| NodeSlot {
                    index,
                    node: Node::with_variation(Arc::clone(&spec), index, variation),
                    ctl: NodeController::new(),
                    running: None,
                    stuck_frozen: None,
                    alive: true,
                    step_energy_j: 0.0,
                    step_throttled: false,
                    step_fill: None,
                    step_ckpt: false,
                    step_completed: None,
                })
                .collect(),
            weights: vec![0.0; scale.nodes],
            queue: (0..scale.jobs)
                .map(|id| PendingJob {
                    id,
                    done_flops: 0.0,
                    prev_node: None,
                })
                .collect(),
            spec,
            completed_flops: 0.0,
            overshoot_ws: 0.0,
            peak_overshoot_frac: 0.0,
            digest: Fnv::OFFSET,
        }
    }

    /// Sequential: absorb crashes, requeue victims from their checkpoint.
    fn absorb_crashes(&mut self, t: f64) {
        let (schedule, dt) = (&self.schedule, self.scale.dt_s);
        for slot in self.slots.iter_mut() {
            let crashed_now = schedule.first_crash_in(slot.index, t, t + dt).is_some();
            if crashed_now {
                self.obs.crashes.inc();
                if let Some(job) = slot.running.take() {
                    self.obs.requeues.inc();
                    // without checkpoints `ckpt_flops` stays at zero
                    self.queue.push_back(PendingJob {
                        id: job.id,
                        done_flops: job.ckpt_flops,
                        prev_node: Some(slot.index),
                    });
                }
            }
            slot.alive = schedule.node_alive(slot.index, t) && !crashed_now;
        }
    }

    /// Sequential: dispatch the queue's head in node-index order.
    fn dispatch(&mut self) {
        for slot in self
            .slots
            .iter_mut()
            .filter(|s| s.alive && s.running.is_none())
        {
            let Some(pending) = self.queue.pop_front() else {
                return;
            };
            if pending.prev_node.is_some_and(|prev| prev != slot.index) {
                self.obs.migrations.inc();
            }
            let (total_flops, intensity, region) =
                job_shape(pending.id, &self.spec, self.scale.job_duration_s);
            slot.running = Some(RunningJob {
                id: pending.id,
                total_flops,
                done_flops: pending.done_flops,
                ckpt_flops: pending.done_flops,
                since_ckpt_s: 0.0,
                intensity,
                region,
            });
        }
    }

    /// Sequential: the facility loop re-splits the budget (flat never does).
    fn split_budget(&mut self, ambient: f64) {
        self.obs.ambient_c.set(ambient);
        self.obs.it_budget_w.set(self.facility.it_budget_w(ambient));
        if self.flat_pstate.is_some() {
            return;
        }
        let (spec, weights) = (&self.spec, &mut self.weights);
        weights.fill(0.0);
        let mut idle_alive = 0usize;
        for slot in self.slots.iter().filter(|slot| slot.alive) {
            match &slot.running {
                Some(job) => {
                    let rate = exec_rate_flops_s(spec, spec.pstates.max_index(), job.intensity);
                    weights[slot.index] = ((job.total_flops - job.done_flops) / rate).max(1.0);
                }
                None => idle_alive += 1,
            }
        }
        let budget =
            (self.facility.it_budget_w(ambient) - idle_alive as f64 * IDLE_RESERVE_W).max(1.0);
        if let Some(caps) = try_weighted_split_observed(budget, weights, &self.pc_obs) {
            for (slot, cap) in self.slots.iter_mut().zip(caps) {
                slot.ctl.set_cap(cap);
            }
        }
    }

    /// Parallel: every node steps independently.
    fn step_nodes(&mut self, t: f64, workers: usize) {
        let (schedule, scale) = (&self.schedule, self.scale);
        let (ckpt_interval_s, flat_pstate) = (self.ckpt_interval_s, self.flat_pstate);
        let step_chunk = |chunk_slots: &mut [NodeSlot]| {
            for slot in chunk_slots {
                step_slot(slot, schedule, t, ckpt_interval_s, scale, flat_pstate);
            }
        };
        if workers == 1 {
            step_chunk(&mut self.slots);
        } else {
            let chunk = self.slots.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk_slots in self.slots.chunks_mut(chunk) {
                    scope.spawn(|| step_chunk(chunk_slots));
                }
            });
        }
    }

    /// Sequential merge, node-index order.
    fn merge(&mut self, ambient: f64) {
        let (dt, cap_w) = (self.scale.dt_s, self.scale.facility_cap_w);
        let mut it_power_w = 0.0;
        for slot in self.slots.iter_mut() {
            it_power_w += slot.step_energy_j / dt;
            if slot.step_throttled {
                self.obs.throttle_events.inc();
            }
            if let Some(fill) = slot.step_fill {
                self.obs.count_fill(fill);
            }
            if slot.step_ckpt {
                self.obs.checkpoints.inc();
            }
            if let Some(job) = slot.step_completed.take() {
                self.obs.completed_jobs.inc();
                self.completed_flops += job.total_flops;
            }
        }
        let facility_w = self.facility.facility_power_w(it_power_w, ambient);
        self.obs.facility_power_w.set(facility_w);
        let over_w = facility_w - cap_w;
        if over_w > 0.0 {
            self.overshoot_ws += over_w * dt;
            self.peak_overshoot_frac = self.peak_overshoot_frac.max(over_w / cap_w);
        }
        self.obs.overshoot_ws.set(self.overshoot_ws);
        self.digest.f64(it_power_w);
        self.digest.f64(facility_w);
    }

    /// Goodput = finished work + retained partial work, rollbacks excluded.
    fn finish(mut self, profile: ClusterProfile) -> ProfileOutcome {
        let (obs, digest) = (&self.obs, &mut self.digest);
        let mut goodput = self.completed_flops;
        let mut energy_j = 0.0;
        for slot in &self.slots {
            if let Some(job) = &slot.running {
                goodput += job.done_flops;
            }
            energy_j += slot.node.energy_j();
            digest.f64(slot.node.temp_c());
            digest.u64(slot.node.pstate_index() as u64);
            digest.f64(slot.node.energy_j());
            digest.f64(slot.running.as_ref().map_or(0.0, |j| j.done_flops));
        }
        for pending in &self.queue {
            goodput += pending.done_flops;
            digest.u64(pending.id as u64);
            digest.f64(pending.done_flops);
        }
        for snapshot in self.registry.snapshot(Some(Scope::Invariant)) {
            digest.u64(match snapshot.value {
                MetricValue::Counter(v) => v,
                MetricValue::Gauge(v) => v.to_bits(),
                MetricValue::Histogram(ref h) => h.count,
            });
        }
        ProfileOutcome {
            profile: profile.name(),
            goodput_flops: goodput,
            completed_jobs: obs.completed_jobs.get(),
            peak_overshoot_frac: self.peak_overshoot_frac,
            overshoot_ws: self.overshoot_ws,
            crashes: obs.crashes.get(),
            requeues: obs.requeues.get(),
            migrations: obs.migrations.get(),
            throttle_events: obs.throttle_events.get(),
            sensor_fallbacks: obs.sensor_held.get()
                + obs.sensor_ewma.get()
                + obs.sensor_assume_worst.get(),
            checkpoints: obs.checkpoints.get(),
            energy_j,
            digest: digest.0,
        }
    }
}

/// The out-of-band temperature reading at `t`: dropped, or frozen when stuck.
fn read_sensor(slot: &mut NodeSlot, schedule: &FaultSchedule, t: f64) -> Option<f64> {
    let truth_c = slot.node.temp_c();
    match schedule.sensor_effect(slot.index, t) {
        SensorEffect::Ok => {
            slot.stuck_frozen = None;
            Some(truth_c)
        }
        SensorEffect::Dropped => {
            slot.stuck_frozen = None;
            None
        }
        SensorEffect::StuckSince(_) => Some(*slot.stuck_frozen.get_or_insert(truth_c)),
    }
}

/// One node's step: telemetry → region capper → thermal clamp →
/// roofline execution of `dt` seconds of the running job. Touches only
/// its own slot, so the parallel phase is chunk-shape-invariant.
fn step_slot(
    slot: &mut NodeSlot,
    schedule: &FaultSchedule,
    t: f64,
    ckpt_interval_s: f64,
    scale: &ClusterScale,
    flat_pstate: Option<usize>,
) {
    let dt = scale.dt_s;
    slot.step_energy_j = 0.0;
    slot.step_throttled = false;
    slot.step_fill = None;
    slot.step_ckpt = false;
    slot.step_completed = None;
    if !slot.alive {
        return; // powered off: no work, no draw
    }
    let Some(mut job) = slot.running.take() else {
        slot.step_energy_j = slot.node.idle(dt).energy_j;
        return;
    };

    let raw = read_sensor(slot, schedule, t);
    let pstate = match flat_pstate {
        Some(global) => {
            slot.node.set_pstate(global);
            global
        }
        None => {
            let plan = slot
                .ctl
                .plan(&mut slot.node, job.region, job.intensity, t, raw);
            slot.step_fill = Some(plan.sensed.fill);
            slot.step_throttled = plan.throttled;
            plan.pstate
        }
    };

    // checkpoint cadence steals its write cost from the step
    let mut avail_s = dt;
    if ckpt_interval_s.is_finite() {
        job.since_ckpt_s += dt;
        if job.since_ckpt_s >= ckpt_interval_s {
            avail_s = (dt - scale.ckpt_cost_s).max(0.0);
            slot.step_ckpt = true;
        }
    }

    let rate = exec_rate_flops_s(slot.node.spec(), pstate, job.intensity);
    let remaining = (job.total_flops - job.done_flops).max(0.0);
    let flops = (rate * avail_s).min(remaining);
    let outcome = slot
        .node
        .execute(&WorkUnit::with_intensity(flops.max(1.0), job.intensity));
    slot.step_energy_j = outcome.energy_j;
    if outcome.time_s < dt {
        slot.step_energy_j += slot.node.idle(dt - outcome.time_s).energy_j;
    }
    job.done_flops += flops;
    if slot.step_ckpt {
        job.ckpt_flops = job.done_flops;
        job.since_ckpt_s = 0.0;
    }
    if job.done_flops >= job.total_flops - 0.5 {
        slot.step_completed = Some(job);
    } else {
        slot.running = Some(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let scale = ClusterScale::tiny();
        let a = run_profile(7, &scale, ClusterProfile::FaultTolerant, 2);
        let b = run_profile(7, &scale, ClusterProfile::FaultTolerant, 2);
        assert_eq!(a, b);
        let c = run_profile(8, &scale, ClusterProfile::FaultTolerant, 2);
        assert_ne!(a.digest, c.digest, "seed must matter");
    }

    #[test]
    fn storm_schedules_are_deterministic_and_seed_sensitive() {
        let config = storm_config(42, 8.0);
        let a = FaultSchedule::generate(&config, 64, 1800.0);
        let b = FaultSchedule::generate(&config, 64, 1800.0);
        assert_eq!(a.digest(), b.digest());
        let c = FaultSchedule::generate(&storm_config(43, 8.0), 64, 1800.0);
        assert_ne!(a.digest(), c.digest());
    }
}
