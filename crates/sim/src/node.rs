//! Compute-node model: roofline execution, DVFS, power, thermals.
//!
//! A node executes [`WorkUnit`]s under a roofline model — execution time is
//! the max of compute time (frequency-dependent) and memory time
//! (frequency-independent) — while integrating power (dynamic + leakage at
//! the evolving junction temperature) into energy. This is the model
//! behind the governor experiment (C3): on memory-bound work, raising the
//! frequency barely helps time but inflates `V²f` power, so the
//! energy-optimal P-state sits well below the `performance` governor's
//! choice.

use crate::accelerator::AcceleratorSpec;
use crate::dvfs::{PState, PStateTable};
use crate::job::WorkUnit;
use crate::power::PowerParams;
use crate::thermal::ThermalModel;
use crate::variability::ProcessVariation;
use std::sync::Arc;

/// Fixed-point iterations in a steady-state temperature prediction.
const STEADY_ITERATIONS: usize = 12;

/// The margin, °C, by which [`SteadyLimit::steady_temp_within`] keeps its
/// shortcuts clear of `powf`'s rounding (see there).
const EPS: f64 = 1e-6;

/// The largest limit magnitude, °C, at which `limit ± EPS` still differs
/// from the limit by about `EPS` (an ULP of 10⁶ is 1.2·10⁻¹⁰).
const SHORTCUT_LIMIT_C: f64 = 1e6;

/// Static description of a node model.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Model name.
    pub name: String,
    /// CPU sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Double-precision flops per core per cycle (sustained, SIMD+FMA).
    pub flops_per_core_cycle: f64,
    /// Node memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Available P-states.
    pub pstates: PStateTable,
    /// Per-socket power parameters.
    pub socket_power: PowerParams,
    /// Attached accelerators.
    pub accelerators: Vec<AcceleratorSpec>,
}

impl NodeSpec {
    /// A CINECA-like CPU-only node: 2 × 12-core Xeon Haswell, 68 GB/s.
    pub fn cineca_xeon() -> Self {
        NodeSpec {
            name: "cineca-xeon".into(),
            sockets: 2,
            cores_per_socket: 12,
            flops_per_core_cycle: 4.0,
            mem_bw_gbs: 68.0,
            pstates: PStateTable::xeon_haswell(),
            socket_power: PowerParams::xeon_socket(),
            accelerators: vec![],
        }
    }

    /// A CINECA-like accelerated node: the Xeon pair plus two GPGPUs
    /// (the NeXtScale drug-discovery partition).
    pub fn cineca_accelerated() -> Self {
        let mut spec = Self::cineca_xeon();
        spec.name = "cineca-accelerated".into();
        spec.accelerators = vec![AcceleratorSpec::tesla_k40(), AcceleratorSpec::tesla_k40()];
        spec
    }

    /// An IT4I Salomon-like node: the Xeon pair plus two Xeon Phi MICs.
    pub fn salomon_phi() -> Self {
        let mut spec = Self::cineca_xeon();
        spec.name = "salomon-phi".into();
        spec.accelerators = vec![
            AcceleratorSpec::xeon_phi_7120(),
            AcceleratorSpec::xeon_phi_7120(),
        ];
        spec
    }

    /// Total CPU cores.
    pub(crate) fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Peak CPU throughput at a given frequency, GFLOP/s.
    pub fn cpu_peak_gflops(&self, freq_ghz: f64) -> f64 {
        self.cores() as f64 * self.flops_per_core_cycle * freq_ghz
    }
}

/// Outcome of executing one work unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// Wall-clock time, seconds.
    pub time_s: f64,
    /// Energy consumed (node-level, IT only), joules.
    pub energy_j: f64,
    /// Mean power over the execution, watts.
    pub avg_power_w: f64,
    /// Junction temperature at completion, °C.
    pub final_temp_c: f64,
}

impl ExecOutcome {
    /// Achieved efficiency, MFLOPS per watt, given the flops performed.
    pub fn mflops_per_watt(&self, flops: f64) -> f64 {
        if self.energy_j == 0.0 {
            return 0.0;
        }
        flops / 1e6 / self.energy_j * 1.0 // MFLOP / J == MFLOPS/W
    }
}

/// A node instance: a spec stamped with a process corner, carrying DVFS
/// and thermal state and an energy meter. Nodes of one model share their
/// spec: a cluster of thousands holds one.
#[derive(Debug, Clone)]
pub struct Node {
    id: usize,
    spec: Arc<NodeSpec>,
    variation: ProcessVariation,
    pstate_index: usize,
    thermal: ThermalModel,
    /// One socket's leakage at the current junction temperature and this
    /// node's corner, `leakage_w(temp_c, leakage_factor)`: set at
    /// construction and after every thermal step, so the next sub-step,
    /// the first step of a safety test and the capper at a fresh reading
    /// read it instead of evaluating the `powf` again.
    leakage_w: f64,
    inlet_temp_c: f64,
    busy_s: f64,
    energy_j: f64,
    flops_done: f64,
}

impl Node {
    /// Creates a node at the nominal process corner. `spec` is an owned
    /// [`NodeSpec`] or an `Arc` of one that other nodes share.
    pub fn nominal(spec: impl Into<Arc<NodeSpec>>, id: usize) -> Self {
        Self::with_variation(spec, id, ProcessVariation::nominal())
    }

    /// Creates a node with an explicit process corner. `spec` is an
    /// owned [`NodeSpec`] or an `Arc` of one that other nodes share.
    pub fn with_variation(
        spec: impl Into<Arc<NodeSpec>>,
        id: usize,
        variation: ProcessVariation,
    ) -> Self {
        let spec = spec.into();
        let inlet = 26.0;
        let pstate_index = spec.pstates.max_index();
        let thermal = ThermalModel::server_node(inlet);
        let leakage_w = spec
            .socket_power
            .leakage_w(thermal.temp_c(), variation.leakage_factor);
        Node {
            id,
            spec,
            variation,
            pstate_index,
            thermal,
            leakage_w,
            inlet_temp_c: inlet,
            busy_s: 0.0,
            energy_j: 0.0,
            flops_done: 0.0,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's specification.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The node's process corner.
    pub fn variation(&self) -> ProcessVariation {
        self.variation
    }

    /// Sets the inlet (rack) air temperature, °C.
    pub fn set_inlet_temp(&mut self, temp_c: f64) {
        self.inlet_temp_c = temp_c;
    }

    /// Current junction temperature.
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// One socket's leakage power at the current junction temperature,
    /// W: exactly `spec().socket_power.leakage_w(temp_c(),
    /// variation().leakage_factor)`, kept since the temperature last
    /// changed, so reading it costs no `powf`.
    pub fn leakage_w(&self) -> f64 {
        self.leakage_w
    }

    /// Selects a P-state by index (0 = slowest).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_pstate(&mut self, index: usize) {
        assert!(index < self.spec.pstates.len(), "P-state out of range");
        self.pstate_index = index;
    }

    /// Current P-state index.
    pub fn pstate_index(&self) -> usize {
        self.pstate_index
    }

    /// Current P-state.
    pub fn pstate(&self) -> PState {
        self.spec.pstates.state(self.pstate_index)
    }

    /// Total busy time so far, seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Total energy consumed so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Total useful flops performed so far.
    pub fn flops_done(&self) -> f64 {
        self.flops_done
    }

    /// Predicted steady-state junction temperature at the given P-state
    /// and activity: twelve fixed-point iterations of the leakage–
    /// temperature coupling from the current junction temperature,
    /// `T ← g(T) = inlet + R·sockets·((constant + dynamic·f_dyn) +
    /// leakage(T))`, each evaluating its leakage afresh. This is the
    /// definition; a controller that only needs to know whether the
    /// prediction respects a limit asks [`SteadyLimit::steady_temp_within`],
    /// which gives the same answer and usually stops after one or two
    /// evaluations of `g`.
    pub fn steady_temp_at(&self, pstate_index: usize, activity: f64) -> f64 {
        self.steady_fixed_point(self.steady_base_w(pstate_index, activity))
    }

    /// The junction limit `limit_c` prepared for this node's safety
    /// tests ([`SteadyLimit::steady_temp_within`]): the leakage at the
    /// limit is evaluated here, once, since it depends on the node's
    /// corner and the limit but not on the P-state. A controller makes
    /// one per decision and tests every P-state it scans against it.
    pub fn steady_limit(&self, limit_c: f64) -> SteadyLimit<'_> {
        SteadyLimit {
            node: self,
            limit_c,
            leakage_w: self.socket_leakage_w(limit_c),
        }
    }

    /// The temperature-independent part of one socket's power in the
    /// steady-state map: `constant + dynamic·f_dyn`.
    fn steady_base_w(&self, pstate_index: usize, activity: f64) -> f64 {
        let power = &self.spec.socket_power;
        let pstate = self.spec.pstates.state(pstate_index);
        power.constant_w + power.dynamic_w(pstate, activity) * self.variation.dynamic_factor
    }

    /// The twelfth iterate of `g` from the current junction temperature.
    fn steady_fixed_point(&self, base_w: f64) -> f64 {
        let mut temp = self.thermal.temp_c();
        for _ in 0..STEADY_ITERATIONS {
            temp = self.steady_step(base_w, self.socket_leakage_w(temp));
        }
        temp
    }

    /// The steady-state map `g` at a temperature whose socket leakage is
    /// `leakage_w`: the junction temperature the node settles at.
    fn steady_step(&self, base_w: f64, leakage_w: f64) -> f64 {
        let power = (base_w + leakage_w) * self.spec.sockets as f64;
        self.thermal.steady_state_c(power, self.inlet_temp_c)
    }

    /// One socket's leakage at `temp_c` for this node's corner.
    fn socket_leakage_w(&self, temp_c: f64) -> f64 {
        self.spec
            .socket_power
            .leakage_w(temp_c, self.variation.leakage_factor)
    }

    /// Whether `g` is non-decreasing and never NaN for a non-NaN
    /// argument: leakage scales a power of κ ≥ 1 by a positive finite
    /// factor, and the sum it joins, the socket count and the inlet are
    /// finite and non-degenerate.
    fn steady_step_is_monotone(&self, base_w: f64) -> bool {
        let power = &self.spec.socket_power;
        let leak_scale = power.leak_w_at_ref * self.variation.leakage_factor;
        power.leak_kappa_per_10c >= 1.0
            && !power.ref_temp_c.is_nan()
            && leak_scale > 0.0
            && leak_scale.is_finite()
            && base_w.is_finite()
            && self.spec.sockets > 0
            && self.inlet_temp_c.is_finite()
    }

    /// Executes a work unit on the CPU cores at the current P-state.
    pub fn execute(&mut self, work: &WorkUnit) -> ExecOutcome {
        let pstate = self.pstate();
        let compute_s = work.flops / (self.spec.cpu_peak_gflops(pstate.freq_ghz) * 1e9);
        let memory_s = work.bytes / (self.spec.mem_bw_gbs * 1e9);
        let time_s = compute_s.max(memory_s).max(1e-12);
        // cores stall on memory but still clock and issue: a floor of 25%
        // switching activity remains even for pure streaming kernels
        let activity = (0.25 + 0.75 * compute_s / time_s).clamp(0.0, 1.0);
        let outcome = self.integrate(pstate, activity, time_s, 0.0);
        self.flops_done += work.flops;
        outcome
    }

    /// Executes a work unit offloaded to accelerator `index`; the host
    /// CPU idles at low activity while the device runs.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator index is out of range.
    pub fn execute_offloaded(&mut self, work: &WorkUnit, index: usize) -> ExecOutcome {
        let accel = self.spec.accelerators[index];
        let time_s = accel.exec_time_s(work.flops, work.bytes).max(1e-12);
        let accel_power = accel.power_w(1.0);
        let pstate = self.pstate();
        let outcome = self.integrate(pstate, 0.05, time_s, accel_power);
        self.flops_done += work.flops;
        outcome
    }

    /// Idles the node for `dt` seconds (cores at minimal activity,
    /// accelerators at idle power), cooling toward the inlet temperature.
    pub fn idle(&mut self, dt: f64) -> ExecOutcome {
        let pstate = self.spec.pstates.slowest();
        let accel_idle: f64 = self.spec.accelerators.iter().map(|a| a.idle_w).sum();
        self.integrate(pstate, 0.0, dt, accel_idle)
    }

    /// Integrates power and thermal state over an interval.
    fn integrate(
        &mut self,
        pstate: PState,
        activity: f64,
        time_s: f64,
        extra_power_w: f64,
    ) -> ExecOutcome {
        // step the RC model; coarse steps are exact per step, but leakage
        // depends on temperature, so subdivide long intervals
        let steps = ((time_s / 20.0).ceil() as usize).clamp(1, 32);
        let dt = time_s / steps as f64;
        let mut energy = 0.0;
        for _ in 0..steps {
            let socket_w = self.spec.socket_power.constant_w
                + self.spec.socket_power.dynamic_w(pstate, activity)
                    * self.variation.dynamic_factor
                + self.leakage_w;
            let power = socket_w * self.spec.sockets as f64 + extra_power_w;
            self.thermal.step(power, self.inlet_temp_c, dt);
            // the leakage the next sub-step (or the next reader) needs
            self.leakage_w = self.socket_leakage_w(self.thermal.temp_c());
            energy += power * dt;
        }
        self.busy_s += time_s;
        self.energy_j += energy;
        ExecOutcome {
            time_s,
            energy_j: energy,
            avg_power_w: energy / time_s,
            final_temp_c: self.thermal.temp_c(),
        }
    }
}

/// A junction limit prepared for one node's safety tests, made by
/// [`Node::steady_limit`]: it holds the node, the limit and one socket's
/// leakage at the limit, so that testing each P-state against it costs
/// no `powf` at the limit.
#[derive(Debug, Clone, Copy)]
pub struct SteadyLimit<'a> {
    node: &'a Node,
    limit_c: f64,
    /// One socket's leakage at `limit_c`, the only temperature-dependent
    /// term of `g(L)`.
    leakage_w: f64,
}

impl SteadyLimit<'_> {
    /// Exactly `node.steady_temp_at(pstate_index, activity) <= limit_c`,
    /// but stops iterating as soon as the answer is certain.
    /// Model-predictive thermal controllers use this to pick the fastest
    /// thermally safe operating point.
    ///
    /// The step map `g` does not decrease as `T` rises: leakage grows
    /// with temperature (κ ≥ 1, saturating at 105 °C) and every other
    /// term is a constant or a non-negative scale. Rounding keeps that,
    /// except in `powf`, which is within an ULP of the true power: two
    /// arguments can come out in the wrong order only when their true
    /// leakage differs by under two ULPs, so for `x ≤ y`,
    /// `g(x) ≤ g(y) + δ` with `δ` about 10⁻¹³ °C for a socket's watts.
    /// The margin ε = 10⁻⁶ °C (a constant) exceeds `δ` by seven orders of
    /// magnitude. It sits on values of `g`, never on the point tested, so
    /// the slack enters each argument once and needs no bound on the
    /// slope of `g`. Three one-line arguments are then exact:
    ///
    /// * **Invariant interval.** If `g(L) ≤ L − ε`, then `T ≤ L` implies
    ///   `g(T) ≤ g(L) + δ ≤ L`: once an iterate is at or below the limit,
    ///   so is every later one, and the state is safe. If
    ///   `g(L) ≥ L + ε`, then `T ≥ L` implies `g(T) > L`: once an iterate
    ///   reaches the limit, the state is unsafe. `g(L)` is tested against
    ///   every iterate.
    /// * **Monotone run.** If an iterate `T ≤ L` is followed by
    ///   `g(T) ≤ T − ε`, then `x ≤ T` implies `g(x) ≤ g(T) + δ ≤ T`, so
    ///   no later iterate climbs past `T`: safe. Mirrored, `T > L`
    ///   followed by `g(T) ≥ T + ε` keeps every later iterate at or
    ///   above `T`: unsafe.
    /// * **Fallback.** Otherwise the twelfth iterate is compared exactly,
    ///   as `steady_temp_at` does.
    ///
    /// `g(L)` and the first iterate `g(T0)` read leakages that do not
    /// depend on the P-state: the one this limit evaluated at `L` and
    /// the one the node keeps for its junction temperature `T0`
    /// ([`Node::leakage_w`]). Each is the value `steady_temp_at` would
    /// compute, bit for bit, so the iterates and the margin argument are
    /// unchanged, and a test whose answer the invariant interval or the
    /// first step decides costs no `powf`; later iterates evaluate their
    /// leakage afresh.
    ///
    /// The shortcuts need `g` to be non-decreasing and never NaN, and
    /// `L ± ε` to differ from `L`. A spec or corner that breaks that
    /// (leakage falling with temperature, a zero or non-finite leakage
    /// scale, a non-finite dynamic term or inlet, no sockets) or a limit
    /// beyond ±10⁶ °C, NaN included, takes the fallback.
    pub fn steady_temp_within(&self, pstate_index: usize, activity: f64) -> bool {
        let (node, limit_c) = (self.node, self.limit_c);
        let base_w = node.steady_base_w(pstate_index, activity);
        if !(node.steady_step_is_monotone(base_w) && limit_c.abs() <= SHORTCUT_LIMIT_C) {
            return node.steady_fixed_point(base_w) <= limit_c;
        }
        let mut temp = node.thermal.temp_c();
        let at_limit = node.steady_step(base_w, self.leakage_w);
        let stays_below = at_limit <= limit_c - EPS;
        let stays_above = at_limit >= limit_c + EPS;
        for step in 0..STEADY_ITERATIONS {
            if temp <= limit_c && stays_below {
                return true;
            }
            if temp >= limit_c && stays_above {
                return false;
            }
            let leakage_w = if step == 0 {
                node.leakage_w
            } else {
                node.socket_leakage_w(temp)
            };
            let next = node.steady_step(base_w, leakage_w);
            if temp <= limit_c && next <= temp - EPS {
                return true;
            }
            if temp > limit_c && next >= temp + EPS {
                return false;
            }
            temp = next;
        }
        temp <= limit_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compute_time_scales_with_frequency() {
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let work = WorkUnit::compute_bound(1e12);
        node.set_pstate(node.spec().pstates.max_index());
        let fast = node.execute(&work);
        node.set_pstate(0);
        let slow = node.execute(&work);
        let freq_ratio =
            node.spec().pstates.fastest().freq_ghz / node.spec().pstates.slowest().freq_ghz;
        assert!((slow.time_s / fast.time_s - freq_ratio).abs() < 0.01);
    }

    #[test]
    fn memory_bound_time_is_frequency_insensitive() {
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let work = WorkUnit::memory_bound(1e11);
        node.set_pstate(node.spec().pstates.max_index());
        let fast = node.execute(&work);
        node.set_pstate(0);
        let slow = node.execute(&work);
        assert!((slow.time_s / fast.time_s - 1.0).abs() < 1e-9);
        // ... but the fast run burned more power
        assert!(fast.avg_power_w > slow.avg_power_w);
    }

    #[test]
    fn memory_bound_energy_optimum_is_a_low_pstate() {
        let spec = NodeSpec::cineca_xeon();
        let work = WorkUnit::memory_bound(5e11);
        let mut energies = Vec::new();
        for idx in 0..spec.pstates.len() {
            let mut node = Node::nominal(spec.clone(), 0);
            node.set_pstate(idx);
            energies.push(node.execute(&work).energy_j);
        }
        let best = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(best < spec.pstates.len() / 2, "optimum at index {best}");
        // savings vs fastest P-state are substantial
        let saving = 1.0 - energies[best] / energies[spec.pstates.len() - 1];
        assert!(saving > 0.15, "saving {saving}");
    }

    #[test]
    fn compute_bound_optimum_is_not_the_slowest_pstate() {
        // racing pays off when leakage+constant power dominates idle time
        let spec = NodeSpec::cineca_xeon();
        let work = WorkUnit::compute_bound(5e12);
        let mut energies = Vec::new();
        for idx in 0..spec.pstates.len() {
            let mut node = Node::nominal(spec.clone(), 0);
            node.set_pstate(idx);
            energies.push(node.execute(&work).energy_j);
        }
        let best = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(best > 0, "constant power must penalize crawling");
    }

    #[test]
    fn offload_beats_cpu_on_compute_bound_work() {
        let mut node = Node::nominal(NodeSpec::cineca_accelerated(), 0);
        let work = WorkUnit::compute_bound(1e13);
        let gpu = node.execute_offloaded(&work, 0);
        let mut cpu_node = Node::nominal(NodeSpec::cineca_xeon(), 1);
        let cpu = cpu_node.execute(&work);
        assert!(
            gpu.time_s < cpu.time_s / 2.0,
            "gpu {} vs cpu {}",
            gpu.time_s,
            cpu.time_s
        );
        assert!(
            gpu.mflops_per_watt(work.flops) > 2.0 * cpu.mflops_per_watt(work.flops),
            "gpu efficiency must dominate"
        );
    }

    #[test]
    fn heterogeneous_efficiency_is_about_3x_homogeneous() {
        // the paper's §I claim: ~7032 vs ~2304 MFLOPS/W (x3).
        let work = WorkUnit::compute_bound(1e13);
        let mut hetero = Node::nominal(NodeSpec::cineca_accelerated(), 0);
        // spread work over both accelerators
        let halves = work.split(2);
        let a = hetero.execute_offloaded(&halves[0], 0);
        let b = hetero.execute_offloaded(&halves[1], 1);
        let hetero_eff = work.flops / 1e6 / (a.energy_j + b.energy_j);
        let mut homo = Node::nominal(NodeSpec::cineca_xeon(), 1);
        let c = homo.execute(&work);
        let homo_eff = c.mflops_per_watt(work.flops);
        let ratio = hetero_eff / homo_eff;
        assert!(
            (2.0..5.0).contains(&ratio),
            "hetero {hetero_eff:.0} vs homo {homo_eff:.0} MFLOPS/W, ratio {ratio:.2}"
        );
    }

    #[test]
    fn leaky_nodes_burn_more_energy() {
        let spec = NodeSpec::cineca_xeon();
        let work = WorkUnit::compute_bound(1e12);
        let mut leaky = Node::with_variation(
            spec.clone(),
            0,
            ProcessVariation {
                leakage_factor: 1.5,
                dynamic_factor: 1.0,
                frequency_factor: 1.0,
            },
        );
        let mut tight = Node::with_variation(
            spec,
            1,
            ProcessVariation {
                leakage_factor: 0.7,
                dynamic_factor: 1.0,
                frequency_factor: 1.0,
            },
        );
        assert!(leaky.execute(&work).energy_j > tight.execute(&work).energy_j);
    }

    #[test]
    fn population_energy_spread_is_roughly_15_percent() {
        // the paper's §V claim (C2): same job, nominally identical nodes,
        // ~15% energy variation.
        let mut rng = StdRng::seed_from_u64(2024);
        let spec = NodeSpec::cineca_xeon();
        let work = WorkUnit::with_intensity(1e12, 4.0);
        let energies: Vec<f64> = (0..200)
            .map(|i| {
                let mut node =
                    Node::with_variation(spec.clone(), i, ProcessVariation::sample(&mut rng));
                node.execute(&work).energy_j
            })
            .collect();
        let mean = energies.iter().sum::<f64>() / energies.len() as f64;
        let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = energies.iter().cloned().fold(0.0, f64::max);
        let spread = (max - min) / mean;
        assert!(
            (0.08..0.40).contains(&spread),
            "energy spread {spread:.3} outside the plausible band around 15%"
        );
    }

    #[test]
    fn thermal_state_rises_under_load_and_recovers_when_idle() {
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let start = node.temp_c();
        node.execute(&WorkUnit::compute_bound(5e13));
        let hot = node.temp_c();
        assert!(
            hot > start + 10.0,
            "load must heat the node: {start} -> {hot}"
        );
        node.idle(1000.0);
        assert!(node.temp_c() < hot - 10.0, "idle must cool down");
    }

    /// The leakage a node keeps, against a fresh evaluation at its
    /// junction temperature.
    fn assert_kept_leakage_is_fresh(node: &Node, after: &str) {
        let fresh = node
            .spec()
            .socket_power
            .leakage_w(node.temp_c(), node.variation().leakage_factor);
        assert_eq!(
            node.leakage_w().to_bits(),
            fresh.to_bits(),
            "after {after}: kept {} W at {} °C, fresh {fresh} W",
            node.leakage_w(),
            node.temp_c()
        );
    }

    #[test]
    fn the_kept_leakage_follows_the_junction_temperature() {
        let corner = ProcessVariation {
            leakage_factor: 1.17,
            dynamic_factor: 0.93,
            frequency_factor: 1.0,
        };
        let mut node = Node::with_variation(NodeSpec::cineca_accelerated(), 0, corner);
        assert_kept_leakage_is_fresh(&node, "construction");
        let start = node.temp_c();
        node.execute(&WorkUnit::compute_bound(5e13));
        assert!(node.temp_c() > start + 10.0, "the work heats the die");
        assert_kept_leakage_is_fresh(&node, "execute");
        node.execute_offloaded(&WorkUnit::compute_bound(1e13), 1);
        assert_kept_leakage_is_fresh(&node, "execute_offloaded");
        node.set_inlet_temp(40.0);
        node.idle(300.0);
        assert_kept_leakage_is_fresh(&node, "idle");

        // steps the thermal model rejects leave the temperature, and so
        // the kept leakage, as they were
        let before = (node.temp_c().to_bits(), node.leakage_w().to_bits());
        let nan_power = WorkUnit {
            flops: f64::NAN,
            ..WorkUnit::compute_bound(1e12)
        };
        node.execute(&nan_power);
        node.idle(-5.0);
        assert_eq!(
            (node.temp_c().to_bits(), node.leakage_w().to_bits()),
            before
        );
        assert_kept_leakage_is_fresh(&node, "rejected steps");

        let mut copy = node.clone();
        assert_kept_leakage_is_fresh(&copy, "clone");
        copy.execute(&WorkUnit::memory_bound(1e12));
        assert_kept_leakage_is_fresh(&copy, "a clone's own step");
        assert_kept_leakage_is_fresh(&node, "a clone's step (the original)");
    }

    #[test]
    fn meters_accumulate() {
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        node.execute(&WorkUnit::compute_bound(1e12));
        node.execute(&WorkUnit::compute_bound(1e12));
        assert!(node.busy_s() > 0.0);
        assert!(node.energy_j() > 0.0);
        assert_eq!(node.flops_done(), 2e12);
    }
}
