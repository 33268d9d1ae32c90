//! Node power model: dynamic CV²f plus temperature-dependent leakage.
//!
//! The two mechanisms behind the paper's §V numbers:
//!
//! * dynamic power `P_dyn = C_eff · V² · f · activity` — cubic-ish in
//!   frequency under DVFS, which is why racing to idle wastes energy on
//!   memory-bound codes;
//! * static power `P_leak = P₀ · κ^((T - T₀)/10) · process` — exponential
//!   in temperature and scaled by the per-chip process factor, the source
//!   of the ≈15% node-to-node energy variation on nominally identical
//!   parts.

use crate::dvfs::PState;

/// Power-model parameters of one socket/node component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Effective switched capacitance term: watts per (V² · GHz) at full
    /// activity.
    pub ceff_w_per_v2_ghz: f64,
    /// Nominal leakage power at reference temperature, in watts.
    pub leak_w_at_ref: f64,
    /// Reference temperature for leakage, °C.
    pub ref_temp_c: f64,
    /// Leakage multiplier per +10 °C (κ; silicon is typically 1.2–1.5).
    pub leak_kappa_per_10c: f64,
    /// Uncore/board constant power in watts (fans, VRs, DRAM refresh).
    pub constant_w: f64,
}

impl PowerParams {
    /// Parameters loosely calibrated on a 12-core Xeon E5 v3 socket:
    /// ≈45 W idle, ≈140 W at 3.0 GHz / 1.25 V full activity. The constant
    /// (uncore/board) share is deliberately significant: it is what makes
    /// race-to-idle competitive on compute-bound work, so the
    /// energy-optimal P-state genuinely depends on the workload — the
    /// effect the paper's runtime manager exploits.
    pub(crate) fn xeon_socket() -> Self {
        PowerParams {
            ceff_w_per_v2_ghz: 18.0,
            leak_w_at_ref: 12.0,
            ref_temp_c: 50.0,
            leak_kappa_per_10c: 1.35,
            constant_w: 35.0,
        }
    }

    /// Dynamic power at a P-state and activity factor (0..=1).
    pub(crate) fn dynamic_w(&self, pstate: PState, activity: f64) -> f64 {
        self.ceff_w_per_v2_ghz * pstate.voltage.powi(2) * pstate.freq_ghz * activity.clamp(0.0, 1.0)
    }

    /// Leakage power at junction temperature `temp_c`, scaled by the
    /// per-chip `process_factor` (1.0 = nominal).
    ///
    /// The evaluation temperature saturates at 105 °C: beyond that point
    /// real parts hit thermal protection, and an unclamped exponential
    /// would make the leakage–temperature feedback loop diverge.
    pub fn leakage_w(&self, temp_c: f64, process_factor: f64) -> f64 {
        let temp_c = temp_c.clamp(-25.0, 105.0);
        self.leak_w_at_ref
            * self
                .leak_kappa_per_10c
                .powf((temp_c - self.ref_temp_c) / 10.0)
            * process_factor
    }

    /// Total power.
    pub fn total_w(&self, pstate: PState, activity: f64, temp_c: f64, process_factor: f64) -> f64 {
        self.total_with_leakage_w(pstate, activity, self.leakage_w(temp_c, process_factor))
    }

    /// [`PowerParams::total_w`] with the leakage term already evaluated:
    /// a caller comparing several P-states at one temperature pays the
    /// `powf` once. Adds the terms in `total_w`'s order, so the two agree
    /// bit for bit.
    pub fn total_with_leakage_w(&self, pstate: PState, activity: f64, leakage_w: f64) -> f64 {
        self.constant_w + self.dynamic_w(pstate, activity) + leakage_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::PStateTable;

    #[test]
    fn dynamic_power_grows_superlinearly_with_frequency() {
        let params = PowerParams::xeon_socket();
        let table = PStateTable::xeon_haswell();
        let slow = params.dynamic_w(table.slowest(), 1.0);
        let fast = params.dynamic_w(table.fastest(), 1.0);
        let freq_ratio = table.fastest().freq_ghz / table.slowest().freq_ghz;
        assert!(
            fast / slow > freq_ratio * 1.5,
            "V² scaling must make power superlinear: {fast}/{slow}"
        );
    }

    #[test]
    fn xeon_socket_is_calibrated() {
        let params = PowerParams::xeon_socket();
        let table = PStateTable::xeon_haswell();
        let tdp = params.total_w(table.fastest(), 1.0, 70.0, 1.0);
        assert!((100.0..170.0).contains(&tdp), "full-load power {tdp} W");
        let idle = params.total_w(table.slowest(), 0.0, 40.0, 1.0);
        assert!((30.0..60.0).contains(&idle), "idle power {idle} W");
    }

    #[test]
    fn leakage_doubles_every_25ish_degrees() {
        let params = PowerParams::xeon_socket();
        let at50 = params.leakage_w(50.0, 1.0);
        let at75 = params.leakage_w(75.0, 1.0);
        assert!(
            at75 / at50 > 1.8 && at75 / at50 < 2.5,
            "ratio {}",
            at75 / at50
        );
    }

    #[test]
    fn process_factor_scales_leakage_linearly() {
        let params = PowerParams::xeon_socket();
        assert!((params.leakage_w(60.0, 1.3) / params.leakage_w(60.0, 1.0) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn activity_clamps() {
        let params = PowerParams::xeon_socket();
        let table = PStateTable::xeon_haswell();
        assert_eq!(
            params.dynamic_w(table.fastest(), 2.0),
            params.dynamic_w(table.fastest(), 1.0)
        );
        assert_eq!(params.dynamic_w(table.fastest(), -1.0), 0.0);
    }
}
