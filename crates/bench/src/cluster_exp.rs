//! CL1 — fault-tolerant cluster-scale RTRM under a fault storm.
//!
//! The headline robustness campaign: a 4096-node cluster on virtual
//! time, driven by the three-level control plane of
//! `rtrm::cluster_ctrl`, under simultaneous adversity — Weibull node
//! crashes with repair, sensor dropouts and stuck-at telemetry, and an
//! afternoon heat wave that degrades the cooling plant so the same
//! facility cap buys less IT power. Four profiles isolate what each
//! defence buys:
//!
//! * `fault_free` — the same hierarchy with the storm switched off; its
//!   goodput is the denominator for retention.
//! * `fault_tolerant` — the full plane: Daly-interval checkpoints,
//!   requeue/migration on crash, hardened sensors, ambient-tracking
//!   facility budget.
//! * `no_checkpoint` — identical, but a crashed job restarts from zero.
//! * `flat` — one global P-state from a single cool-morning estimate,
//!   a budget that never re-reads the ambient, no per-node adaptation.
//!
//! The campaign is deterministic and worker-invariant: the per-node
//! phase runs on scoped threads over disjoint slot chunks, every
//! cross-node reduction happens sequentially in node-index order, and a
//! running FNV-1a digest over the facility-power trajectory and final
//! state is byte-identical at any worker count.

use crate::{fixed, hex, list, physical_cores, timed, BenchFile, Digest, Map, Value};
use antarex_obs::{MetricsRegistry, Scope};
use antarex_rtrm::checkpoint::daly_interval_s;
use antarex_rtrm::cluster_ctrl::{
    ClusterObs, FacilityController, NodeController, RegionKind, SensedFill,
};
use antarex_rtrm::powercap::{
    estimated_power_at_temp, estimated_power_w, try_weighted_split_observed, PowercapObs,
};
use antarex_sim::cooling::{heat_wave_ambient_c, CoolingPlant};
use antarex_sim::faults::{FaultConfig, FaultSchedule, SensorEffect};
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::variability::ProcessVariation;
use std::collections::VecDeque;

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

// ---------------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------------

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
pub(crate) fn default_facility_cap_w(nodes: usize) -> f64 {
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

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

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
    pub(crate) fn name(self) -> &'static str {
        match self {
            ClusterProfile::FaultFree => "fault_free",
            ClusterProfile::FaultTolerant => "fault_tolerant",
            ClusterProfile::NoCheckpoint => "no_checkpoint",
            ClusterProfile::Flat => "flat",
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign state
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// One profile run
// ---------------------------------------------------------------------------

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
    let spec = NodeSpec::cineca_xeon();
    let plant = CoolingPlant::european_datacenter();
    let facility = FacilityController::try_new(scale.facility_cap_w, plant, GUARD_BAND)
        .expect("valid facility configuration");

    let fault_config = match profile {
        ClusterProfile::FaultFree => FaultConfig::none(seed),
        _ => storm_config(seed, scale.crash_rate),
    };
    let schedule = FaultSchedule::generate(&fault_config, scale.nodes, scale.horizon_s);

    let registry = MetricsRegistry::new();
    let obs = ClusterObs::register(&registry);
    let pc_obs = PowercapObs::register(&registry);

    let ckpt_interval_s = match profile {
        ClusterProfile::NoCheckpoint => f64::INFINITY,
        _ => daly_interval_s(scale.node_mtbf_s(), scale.ckpt_cost_s),
    };

    // the flat baseline's one decision: global P-state from node 0's
    // cool-morning estimate against an ambient-blind uniform share
    let flat_pstate = (profile == ClusterProfile::Flat).then(|| {
        let probe = Node::nominal(spec.clone(), 0);
        let share = scale.facility_cap_w
            / (1.0 + plant.overhead_fraction(scale.ambient_start_c))
            / scale.nodes as f64;
        let mut pick = 0;
        for idx in 0..spec.pstates.len() {
            if estimated_power_w(&probe, idx) <= share {
                pick = idx;
            }
        }
        pick
    });

    let variations = ProcessVariation::population(seed ^ 0xA5A5_0F0F, scale.nodes);
    let mut slots: Vec<NodeSlot> = variations
        .into_iter()
        .enumerate()
        .map(|(index, variation)| NodeSlot {
            index,
            node: Node::with_variation(spec.clone(), index, variation),
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
        .collect();

    let mut queue: VecDeque<PendingJob> = (0..scale.jobs)
        .map(|id| PendingJob {
            id,
            done_flops: 0.0,
            prev_node: None,
        })
        .collect();
    let mut completed_flops = 0.0f64;
    let mut overshoot_ws = 0.0f64;
    let mut peak_overshoot_frac = 0.0f64;
    let mut digest = Digest::new();

    let steps = (scale.horizon_s / scale.dt_s).round() as usize;
    let ramp_s = 0.6 * scale.horizon_s;
    for step in 0..steps {
        let t = step as f64 * scale.dt_s;
        let dt = scale.dt_s;
        let ambient = heat_wave_ambient_c(t, scale.ambient_start_c, scale.ambient_peak_c, ramp_s);

        // --- sequential: absorb crashes, requeue victims -------------
        for slot in slots.iter_mut() {
            let crashed_now = schedule.first_crash_in(slot.index, t, t + dt).is_some();
            if crashed_now {
                obs.crashes.inc();
                if let Some(job) = slot.running.take() {
                    obs.requeues.inc();
                    let retained = if ckpt_interval_s.is_finite() {
                        job.ckpt_flops
                    } else {
                        0.0
                    };
                    queue.push_back(PendingJob {
                        id: job.id,
                        done_flops: retained,
                        prev_node: Some(slot.index),
                    });
                }
            }
            slot.alive = schedule.node_alive(slot.index, t) && !crashed_now;
        }

        // --- sequential: dispatch in node-index order ----------------
        for slot in slots.iter_mut() {
            if slot.alive && slot.running.is_none() {
                if let Some(pending) = queue.pop_front() {
                    if pending.prev_node.is_some_and(|prev| prev != slot.index) {
                        obs.migrations.inc();
                    }
                    let (total_flops, intensity, region) =
                        job_shape(pending.id, &spec, scale.job_duration_s);
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
        }

        // --- sequential: facility loop re-splits the budget ----------
        obs.ambient_c.set(ambient);
        obs.it_budget_w.set(facility.it_budget_w(ambient));
        if flat_pstate.is_none() {
            let mut weights = vec![0.0f64; slots.len()];
            let mut idle_alive = 0usize;
            for slot in slots.iter() {
                if !slot.alive {
                    continue;
                }
                match &slot.running {
                    Some(job) => {
                        let rate =
                            exec_rate_flops_s(&spec, spec.pstates.max_index(), job.intensity);
                        weights[slot.index] = ((job.total_flops - job.done_flops) / rate).max(1.0);
                    }
                    None => idle_alive += 1,
                }
            }
            let budget =
                (facility.it_budget_w(ambient) - idle_alive as f64 * IDLE_RESERVE_W).max(1.0);
            if let Some(caps) = try_weighted_split_observed(budget, &weights, &pc_obs) {
                for (slot, cap) in slots.iter_mut().zip(caps) {
                    slot.ctl.set_cap(cap);
                }
            }
        }

        // --- parallel: every node steps independently ----------------
        let step_chunk = |chunk_slots: &mut [NodeSlot]| {
            for slot in chunk_slots {
                step_slot(slot, &schedule, t, dt, ckpt_interval_s, scale, flat_pstate);
            }
        };
        if workers == 1 {
            step_chunk(&mut slots);
        } else {
            let chunk = slots.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk_slots in slots.chunks_mut(chunk) {
                    scope.spawn(|| step_chunk(chunk_slots));
                }
            });
        }

        // --- sequential merge, node-index order ----------------------
        let mut it_power_w = 0.0;
        for slot in slots.iter_mut() {
            it_power_w += slot.step_energy_j / dt;
            if slot.step_throttled {
                obs.throttle_events.inc();
            }
            if let Some(fill) = slot.step_fill {
                obs.count_fill(fill);
            }
            if slot.step_ckpt {
                obs.checkpoints.inc();
            }
            if let Some(job) = slot.step_completed.take() {
                obs.completed_jobs.inc();
                completed_flops += job.total_flops;
            }
        }
        let facility_w = facility.facility_power_w(it_power_w, ambient);
        obs.facility_power_w.set(facility_w);
        let over_w = facility_w - scale.facility_cap_w;
        if over_w > 0.0 {
            overshoot_ws += over_w * dt;
            peak_overshoot_frac = peak_overshoot_frac.max(over_w / scale.facility_cap_w);
        }
        obs.overshoot_ws.set(overshoot_ws);
        digest.f64(it_power_w);
        digest.f64(facility_w);
    }

    // goodput = finished work + retained partial work, rollbacks excluded
    let mut goodput = completed_flops;
    let mut energy_j = 0.0;
    for slot in &slots {
        if let Some(job) = &slot.running {
            goodput += job.done_flops;
        }
        energy_j += slot.node.energy_j();
        digest.f64(slot.node.temp_c());
        digest.u64(slot.node.pstate_index() as u64);
        digest.f64(slot.node.energy_j());
        digest.f64(slot.running.as_ref().map_or(0.0, |j| j.done_flops));
    }
    for pending in &queue {
        goodput += pending.done_flops;
        digest.u64(pending.id as u64);
        digest.f64(pending.done_flops);
    }
    for snapshot in registry.snapshot(Some(Scope::Invariant)) {
        digest.u64(match snapshot.value {
            antarex_obs::MetricValue::Counter(v) => v,
            antarex_obs::MetricValue::Gauge(v) => v.to_bits(),
            antarex_obs::MetricValue::Histogram(ref h) => h.count,
        });
    }

    ProfileOutcome {
        profile: profile.name(),
        goodput_flops: goodput,
        completed_jobs: obs.completed_jobs.get(),
        peak_overshoot_frac,
        overshoot_ws,
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

/// One node's step: telemetry → region capper → thermal clamp →
/// roofline execution of `dt` seconds of the running job. Touches only
/// its own slot, so the parallel phase is chunk-shape-invariant.
fn step_slot(
    slot: &mut NodeSlot,
    schedule: &FaultSchedule,
    t: f64,
    dt: f64,
    ckpt_interval_s: f64,
    scale: &ClusterScale,
    flat_pstate: Option<usize>,
) {
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

    // hardened telemetry: the out-of-band path may drop or freeze
    let truth_c = slot.node.temp_c();
    let raw = match schedule.sensor_effect(slot.index, t) {
        SensorEffect::Ok => {
            slot.stuck_frozen = None;
            Some(truth_c)
        }
        SensorEffect::Dropped => {
            slot.stuck_frozen = None;
            None
        }
        SensorEffect::StuckSince(_) => Some(*slot.stuck_frozen.get_or_insert(truth_c)),
    };

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

// ---------------------------------------------------------------------------
// Campaign + invariance
// ---------------------------------------------------------------------------

/// Runs all four profiles; order is fixed (`fault_free` first so row 0
/// is always the retention denominator).
pub(crate) fn cluster_campaign(
    seed: u64,
    scale: &ClusterScale,
    workers: usize,
) -> Vec<ProfileOutcome> {
    [
        ClusterProfile::FaultFree,
        ClusterProfile::FaultTolerant,
        ClusterProfile::NoCheckpoint,
        ClusterProfile::Flat,
    ]
    .iter()
    .map(|&profile| run_profile(seed, scale, profile, workers))
    .collect()
}

/// Worker-count invariance verdict.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InvarianceOutcome {
    /// Worker counts exercised.
    pub worker_counts: Vec<usize>,
    /// Campaign digest per worker count.
    pub digests: Vec<u64>,
    /// Whether every digest matched the single-worker run.
    pub identical: bool,
}

/// Reruns the fault-tolerant profile at each worker count and compares
/// the full-state digests: physical parallelism must never leak into
/// the virtual campaign.
pub(crate) fn worker_invariance(
    seed: u64,
    scale: &ClusterScale,
    counts: &[usize],
) -> InvarianceOutcome {
    let digests: Vec<u64> = counts
        .iter()
        .map(|&workers| run_profile(seed, scale, ClusterProfile::FaultTolerant, workers).digest)
        .collect();
    let identical = digests.windows(2).all(|pair| pair[0] == pair[1]);
    InvarianceOutcome {
        worker_counts: counts.to_vec(),
        digests,
        identical,
    }
}

// ---------------------------------------------------------------------------
// Experiment report
// ---------------------------------------------------------------------------

/// The registered `cl1` experiment: the tiny-scale campaign with the
/// same four profiles and verdicts, deterministic text.
pub(crate) fn cl1_cluster_rtrm() -> String {
    let seed = 42;
    let scale = ClusterScale::tiny();
    let rows = cluster_campaign(seed, &scale, 2);
    let invariance = worker_invariance(seed, &scale, &[1, 2, 4]);
    let reference = rows[0].goodput_flops;

    let mut out = String::new();
    out.push_str(&format!(
        "cluster RTRM campaign (seed {seed}, {} nodes, {} jobs, {:.0} s virtual, cap {:.0} kW)\n",
        scale.nodes,
        scale.jobs,
        scale.horizon_s,
        scale.facility_cap_w / 1e3
    ));
    out.push_str(&format!(
        "storm: node MTBF {:.0} s, checkpoint interval {:.0} s (Daly), heat wave {:.0} -> {:.0} degC\n\n",
        scale.node_mtbf_s(),
        daly_interval_s(scale.node_mtbf_s(), scale.ckpt_cost_s),
        scale.ambient_start_c,
        scale.ambient_peak_c
    ));
    out.push_str(
        "profile          goodput  retain  peak-over  crashes  requeue  migrate  throttle  sensor-fb  ckpts\n",
    );
    for row in &rows {
        out.push_str(&format!(
            "{:<16} {:>7.2e}  {:>5.1}%  {:>8.2}%  {:>7}  {:>7}  {:>7}  {:>8}  {:>9}  {:>5}\n",
            row.profile,
            row.goodput_flops,
            100.0 * row.goodput_flops / reference,
            100.0 * row.peak_overshoot_frac,
            row.crashes,
            row.requeues,
            row.migrations,
            row.throttle_events,
            row.sensor_fallbacks,
            row.checkpoints,
        ));
    }
    let tolerant = &rows[1];
    let no_ckpt = &rows[2];
    let flat = &rows[3];
    out.push_str(&format!(
        "\nworker invariance ({:?} workers): digests {:?} -> {}\n",
        invariance.worker_counts,
        invariance
            .digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>(),
        if invariance.identical {
            "identical"
        } else {
            "DIVERGED"
        }
    ));
    out.push_str(&format!(
        "verdict: tolerant holds the cap ({}), checkpoints pay ({}), ambient-blind flat overshoots ({})\n",
        if tolerant.peak_overshoot_frac <= 0.01 { "yes" } else { "NO" },
        if tolerant.goodput_flops > no_ckpt.goodput_flops { "yes" } else { "NO" },
        if flat.peak_overshoot_frac > tolerant.peak_overshoot_frac { "yes" } else { "NO" },
    ));
    out
}

/// `BENCH_cluster.json`: the four profiles at 4096 nodes under the
/// storm, the 1/2/4/8-worker digests, and the control plane's gates.
pub(crate) fn cl1_bench() -> BenchFile {
    let seed = 42;
    let scale = ClusterScale::full();
    let cores = physical_cores();
    let workers = cores.min(8);
    let (rows, campaign_s) = timed(|| cluster_campaign(seed, &scale, workers));
    let (invariance, invariance_s) = timed(|| worker_invariance(seed, &scale, &[1, 2, 4, 8]));

    let retention = |row: &ProfileOutcome| row.goodput_flops / rows[0].goodput_flops;
    let outcome = |row: &ProfileOutcome| {
        map! {
            "goodput_flops": Value::Raw(format!("{:.6e}", row.goodput_flops)),
            "goodput_retention": fixed(retention(row), 4),
            "completed_jobs": row.completed_jobs,
            "peak_overshoot_frac": fixed(row.peak_overshoot_frac, 6),
            "overshoot_ws": fixed(row.overshoot_ws, 3),
            "crashes": row.crashes,
            "requeues": row.requeues,
            "migrations": row.migrations,
            "throttle_events": row.throttle_events,
            "sensor_fallbacks": row.sensor_fallbacks,
            "checkpoints": row.checkpoints,
            "energy_mj": fixed(row.energy_j / 1e6, 3),
            "digest": hex(row.digest),
        }
    };
    let (tolerant, no_ckpt, flat) = (&rows[1], &rows[2], &rows[3]);
    let (tolerant_over, flat_over) = (tolerant.peak_overshoot_frac, flat.peak_overshoot_frac);
    let (tolerant_kept, no_ckpt_kept) = (retention(tolerant), retention(no_ckpt));
    let (crashes, fallbacks) = (tolerant.crashes, tolerant.sensor_fallbacks);
    let counts = &invariance.worker_counts;

    BenchFile {
        title: "antarex-rtrm: fault-tolerant cluster-scale control plane",
        fields: map! {
            "workload": map! {
                "nodes": scale.nodes,
                "jobs": scale.jobs,
                "virtual_horizon_s": fixed(scale.horizon_s, 0),
                "control_step_s": fixed(scale.dt_s, 0),
                "facility_cap_w": fixed(scale.facility_cap_w, 0),
                "node_mtbf_s": fixed(scale.node_mtbf_s(), 0),
                "heat_wave_c": list([fixed(scale.ambient_start_c, 0), fixed(scale.ambient_peak_c, 0)]),
            },
            "profiles": rows.iter().map(|row| (row.profile, outcome(row))).collect::<Map>(),
            "worker_invariance": map! {
                "worker_counts": list(counts.clone()),
                "digests": list(invariance.digests.iter().map(|&digest| hex(digest))),
                "identical": invariance.identical,
            },
        },
        gates: gates! {
            "tolerant_holds_facility_cap": tolerant_over <= 0.01, "peak overshoot {tolerant_over:.4} <= 0.01";
            "tolerant_retains_goodput": tolerant_kept >= 0.95, "retention {tolerant_kept:.4} >= 0.95";
            "flat_breaks_the_cap": flat_over > 0.01, "peak overshoot {flat_over:.4} > 0.01";
            "no_checkpoint_loses_goodput": no_ckpt_kept < 0.95, "retention {no_ckpt_kept:.4} < 0.95";
            "storm_actually_fired": crashes > 0 && fallbacks > 0,
                "crashes {crashes} > 0, sensor fallbacks {fallbacks} > 0";
            "worker_invariance": invariance.identical, "digests identical at {counts:?}";
        },
        wall: map! {
            "physical_cores": cores,
            "workers": workers,
            "wall_clock_s": map! {
                "campaign": fixed(campaign_s, 3),
                "worker_invariance": fixed(invariance_s, 3),
            },
        },
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
    fn campaign_state_is_worker_count_invariant() {
        let scale = ClusterScale::tiny();
        let invariance = worker_invariance(42, &scale, &[1, 2, 3, 8]);
        assert!(
            invariance.identical,
            "digests diverged: {:?}",
            invariance.digests
        );
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

    #[test]
    fn tolerant_beats_no_checkpoint_and_flat_breaks_the_cap() {
        let scale = ClusterScale::tiny();
        let rows = cluster_campaign(42, &scale, 2);
        let (fault_free, tolerant, no_ckpt, flat) = (&rows[0], &rows[1], &rows[2], &rows[3]);
        assert_eq!(fault_free.crashes, 0);
        assert!(tolerant.crashes > 0, "storm must crash nodes");
        assert!(tolerant.sensor_fallbacks > 0, "storm must degrade sensors");
        assert!(
            tolerant.goodput_flops > no_ckpt.goodput_flops,
            "checkpoints must retain goodput: {} vs {}",
            tolerant.goodput_flops,
            no_ckpt.goodput_flops
        );
        assert!(
            flat.peak_overshoot_frac > tolerant.peak_overshoot_frac,
            "ambient-blind flat must overshoot more: {} vs {}",
            flat.peak_overshoot_frac,
            tolerant.peak_overshoot_frac
        );
        assert!(
            tolerant.peak_overshoot_frac <= 0.01,
            "tolerant must hold the cap, overshot {:.4}",
            tolerant.peak_overshoot_frac
        );
    }

    #[test]
    fn report_renders_and_is_stable() {
        let a = cl1_cluster_rtrm();
        let b = cl1_cluster_rtrm();
        assert_eq!(a, b);
        assert!(a.contains("fault_tolerant"));
        assert!(a.contains("identical"));
    }
}
