//! Accelerator models: GPGPU and MIC (Intel Xeon Phi).
//!
//! "Green HPC systems ... employing increasingly heterogeneous
//! architectures with GPGPU or MIC accelerators. On average, the
//! efficiency of heterogeneous systems is almost three times that of
//! homogeneous systems" (§I). Accelerators here are simple roofline
//! devices: peak FLOP/s, memory bandwidth, TDP, plus an offload
//! efficiency capturing kernel-launch and PCIe overheads.

/// The accelerator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// A discrete GPU (Kepler/Tesla class in the paper's timeframe).
    Gpgpu,
    /// An Intel Xeon Phi (MIC) coprocessor (Knights Corner class).
    MicPhi,
}

/// Specification of one accelerator card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorSpec {
    /// Family.
    pub kind: AcceleratorKind,
    /// Peak double-precision throughput, GFLOP/s.
    pub peak_gflops: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Board power at full load, watts.
    pub tdp_w: f64,
    /// Idle board power, watts.
    pub idle_w: f64,
    /// Fraction of peak achievable on well-mapped kernels (offload +
    /// occupancy efficiency).
    pub efficiency: f64,
}

impl AcceleratorSpec {
    /// A Tesla K40-class GPGPU: 1430 DP GFLOP/s, 288 GB/s, 235 W.
    pub(crate) fn tesla_k40() -> Self {
        AcceleratorSpec {
            kind: AcceleratorKind::Gpgpu,
            peak_gflops: 1430.0,
            mem_bw_gbs: 288.0,
            tdp_w: 235.0,
            idle_w: 25.0,
            efficiency: 0.75,
        }
    }

    /// A Xeon Phi 7120-class MIC: 1208 DP GFLOP/s, 352 GB/s, 300 W.
    pub(crate) fn xeon_phi_7120() -> Self {
        AcceleratorSpec {
            kind: AcceleratorKind::MicPhi,
            peak_gflops: 1208.0,
            mem_bw_gbs: 352.0,
            tdp_w: 300.0,
            idle_w: 40.0,
            efficiency: 0.60,
        }
    }

    /// Sustained throughput on a compute-bound kernel, GFLOP/s.
    pub(crate) fn sustained_gflops(&self) -> f64 {
        self.peak_gflops * self.efficiency
    }

    /// Roofline execution time for `flops` floating-point operations and
    /// `bytes` of device memory traffic, in seconds.
    pub fn exec_time_s(&self, flops: f64, bytes: f64) -> f64 {
        let compute = flops / (self.sustained_gflops() * 1e9);
        let memory = bytes / (self.mem_bw_gbs * 1e9);
        compute.max(memory)
    }

    /// Board power while executing with the given activity (0..=1).
    pub(crate) fn power_w(&self, activity: f64) -> f64 {
        self.idle_w + (self.tdp_w - self.idle_w) * activity.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerators_are_an_order_more_efficient_than_cpus() {
        // Xeon socket: ~40 DP GFLOPS sustained at ~105 W -> ~400 MFLOPS/W.
        for spec in [
            AcceleratorSpec::tesla_k40(),
            AcceleratorSpec::xeon_phi_7120(),
        ] {
            let eff = spec.sustained_gflops() * 1000.0 / spec.tdp_w;
            assert!(
                eff > 2000.0,
                "{:?} efficiency {eff} MFLOPS/W too low",
                spec.kind
            );
        }
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        let gpu = AcceleratorSpec::tesla_k40();
        // compute-bound: lots of flops, no bytes
        let t_compute = gpu.exec_time_s(1e12, 0.0);
        assert!((t_compute - 1e12 / (gpu.sustained_gflops() * 1e9)).abs() < 1e-12);
        // memory-bound: 1 TB of traffic dominates
        let t_mem = gpu.exec_time_s(1e9, 1e12);
        assert!((t_mem - 1e12 / (288.0 * 1e9)).abs() < 1e-9);
        assert!(t_mem > gpu.exec_time_s(1e9, 0.0));
    }

    #[test]
    fn power_interpolates_between_idle_and_tdp() {
        let mic = AcceleratorSpec::xeon_phi_7120();
        assert_eq!(mic.power_w(0.0), mic.idle_w);
        assert_eq!(mic.power_w(1.0), mic.tdp_w);
        let half = mic.power_w(0.5);
        assert!(half > mic.idle_w && half < mic.tdp_w);
    }
}
