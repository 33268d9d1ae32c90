//! Projection toward the Exascale envelope.
//!
//! Paper §I: "the target power envelope for future Exascale system ranges
//! between 20 and 30 MW", and heterogeneous efficiency (~7 GFLOPS/W in
//! 2015) "is still two orders of magnitude lower than that needed for
//! supporting Exascale systems at the target power envelope of 20 MW".
//! §I also promises that "performance metrics extracted from the two use
//! cases will be modelled to extrapolate these results towards Exascale
//! systems". This module does that extrapolation: efficiency-driven power
//! projection plus Amdahl/Gustafson scaling of the use-case workloads.

/// One exaFLOPS, in FLOP/s.
pub const EXAFLOPS: f64 = 1e18;

/// The paper's target envelope, watts.
pub const ENVELOPE_LOW_W: f64 = 20e6;
/// Upper end of the envelope, watts.
pub const ENVELOPE_HIGH_W: f64 = 30e6;

/// An efficiency-driven projection from measured node metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExascaleProjection {
    /// Measured sustained node throughput, GFLOP/s.
    pub node_gflops: f64,
    /// Measured node power, watts.
    pub node_power_w: f64,
    /// Facility PUE applied on top of IT power.
    pub pue: f64,
}

impl ExascaleProjection {
    /// Creates a projection from measured node metrics.
    ///
    /// # Panics
    ///
    /// Panics unless throughput, power and PUE are positive (PUE ≥ 1).
    pub fn new(node_gflops: f64, node_power_w: f64, pue: f64) -> Self {
        assert!(
            node_gflops > 0.0 && node_power_w > 0.0,
            "metrics must be positive"
        );
        assert!(pue >= 1.0, "PUE cannot be below 1");
        ExascaleProjection {
            node_gflops,
            node_power_w,
            pue,
        }
    }

    /// Measured node efficiency, MFLOPS/W (IT only).
    pub fn mflops_per_watt(&self) -> f64 {
        self.node_gflops * 1000.0 / self.node_power_w
    }

    /// Nodes needed to reach `target_flops` sustained.
    pub fn nodes_needed(&self, target_flops: f64) -> f64 {
        target_flops / (self.node_gflops * 1e9)
    }

    /// Projected facility power at `target_flops`, watts.
    pub fn projected_power_w(&self, target_flops: f64) -> f64 {
        self.nodes_needed(target_flops) * self.node_power_w * self.pue
    }

    /// Whether one exaFLOPS fits the paper's 20 MW target at this
    /// efficiency.
    pub fn fits_envelope(&self) -> bool {
        self.projected_power_w(EXAFLOPS) <= ENVELOPE_LOW_W
    }

    /// The efficiency improvement factor still required to reach the
    /// 20 MW exascale envelope (1.0 = already there).
    pub fn efficiency_gap(&self) -> f64 {
        (self.projected_power_w(EXAFLOPS) / ENVELOPE_LOW_W).max(1.0)
    }
}

/// Amdahl speedup of a workload with serial fraction `serial` on `n`
/// processors (strong scaling).
///
/// # Panics
///
/// Panics unless `serial` is in `[0, 1]` and `n ≥ 1`.
pub fn amdahl_speedup(serial: f64, n: f64) -> f64 {
    assert!((0.0..=1.0).contains(&serial), "serial fraction in [0, 1]");
    assert!(n >= 1.0, "need at least one processor");
    1.0 / (serial + (1.0 - serial) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn petascale_2015_node_misses_envelope_by_orders_of_magnitude() {
        // a CPU-only 2015 node: ~0.3 TFLOPS at ~300 W, PUE 1.25
        let projection = ExascaleProjection::new(300.0, 300.0, 1.25);
        assert!(!projection.fits_envelope());
        let gap = projection.efficiency_gap();
        assert!(
            (20.0..200.0).contains(&gap),
            "gap {gap} should be around two orders of magnitude"
        );
    }

    #[test]
    fn efficient_enough_node_fits() {
        // ~90 GFLOPS/W node (the actual exascale-era figure): 10 TF at 110 W
        let projection = ExascaleProjection::new(10_000.0, 110.0, 1.1);
        assert!(projection.fits_envelope());
        assert_eq!(projection.efficiency_gap(), 1.0);
    }

    #[test]
    fn projection_arithmetic() {
        let projection = ExascaleProjection::new(1000.0, 500.0, 1.2);
        assert_eq!(projection.nodes_needed(1e15), 1000.0);
        assert!((projection.projected_power_w(1e15) - 1000.0 * 500.0 * 1.2).abs() < 1e-6);
        assert!((projection.mflops_per_watt() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_saturates() {
        let serial = 0.01;
        let strong_1k = amdahl_speedup(serial, 1000.0);
        let strong_1m = amdahl_speedup(serial, 1_000_000.0);
        assert!(strong_1k < 100.0 / serial);
        assert!(
            strong_1m < 1.0 / serial * 1.01,
            "Amdahl ceiling at 1/serial"
        );
    }

    #[test]
    fn trivial_bounds() {
        assert_eq!(amdahl_speedup(1.0, 1e6), 1.0);
        assert!((amdahl_speedup(0.0, 64.0) - 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn sub_unity_pue_rejected() {
        let _ = ExascaleProjection::new(1.0, 1.0, 0.9);
    }
}
