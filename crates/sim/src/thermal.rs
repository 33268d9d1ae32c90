//! First-order RC thermal model.
//!
//! Junction temperature follows `C · dT/dt = P − (T − T_env)/R`: power
//! heats the die, the heatsink path (resistance `R`) drains heat toward
//! the node inlet temperature. The exponential step solution keeps the
//! integration exact for piecewise-constant power, so long executions can
//! be stepped coarsely without drift.

use crate::error::SimError;

/// RC thermal parameters and state of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Thermal resistance junction→inlet, °C per watt.
    pub resistance_c_per_w: f64,
    /// Thermal capacitance, joules per °C.
    pub capacitance_j_per_c: f64,
    /// Current junction temperature, °C.
    temp_c: f64,
}

impl ThermalModel {
    /// Creates a model at thermal equilibrium with `env_temp_c`.
    ///
    /// # Panics
    ///
    /// Panics unless resistance and capacitance are positive.
    pub(crate) fn new(resistance_c_per_w: f64, capacitance_j_per_c: f64, env_temp_c: f64) -> Self {
        Self::try_new(resistance_c_per_w, capacitance_j_per_c, env_temp_c)
            .expect("valid thermal parameters")
    }

    /// Creates a model at thermal equilibrium with `env_temp_c`,
    /// rejecting non-finite or non-positive parameters with a typed
    /// error instead of panicking.
    pub(crate) fn try_new(
        resistance_c_per_w: f64,
        capacitance_j_per_c: f64,
        env_temp_c: f64,
    ) -> Result<Self, SimError> {
        for (what, value) in [
            ("thermal resistance", resistance_c_per_w),
            ("thermal capacitance", capacitance_j_per_c),
            ("environment temperature", env_temp_c),
        ] {
            if !value.is_finite() {
                return Err(SimError::NonFinite { what, value });
            }
        }
        if resistance_c_per_w <= 0.0 {
            return Err(SimError::NonPositive {
                what: "thermal resistance must be positive",
                value: resistance_c_per_w,
            });
        }
        if capacitance_j_per_c <= 0.0 {
            return Err(SimError::NonPositive {
                what: "thermal capacitance must be positive",
                value: capacitance_j_per_c,
            });
        }
        Ok(ThermalModel {
            resistance_c_per_w,
            capacitance_j_per_c,
            temp_c: env_temp_c,
        })
    }

    /// A server-node heatsink: 0.25 °C/W and a ≈50 s time constant.
    pub fn server_node(env_temp_c: f64) -> Self {
        ThermalModel::new(0.25, 200.0, env_temp_c)
    }

    /// Current junction temperature.
    pub(crate) fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Steady-state temperature for constant `power_w` and `env_temp_c`.
    pub(crate) fn steady_state_c(&self, power_w: f64, env_temp_c: f64) -> f64 {
        env_temp_c + self.resistance_c_per_w * power_w
    }

    /// Advances the model by `dt` seconds with constant `power_w` and
    /// environment `env_temp_c` (exact exponential update).
    ///
    /// Non-finite or negative inputs leave the state untouched and
    /// return the current temperature — a single NaN power sample must
    /// not poison the junction state for the rest of the run.
    pub fn step(&mut self, power_w: f64, env_temp_c: f64, dt: f64) -> f64 {
        if !power_w.is_finite() || !env_temp_c.is_finite() || !dt.is_finite() || dt < 0.0 {
            return self.temp_c;
        }
        let target = self.steady_state_c(power_w, env_temp_c);
        let tau = self.resistance_c_per_w * self.capacitance_j_per_c;
        let decay = (-dt / tau).exp();
        self.temp_c = target + (self.temp_c - target) * decay;
        self.temp_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_steady_state() {
        let mut model = ThermalModel::server_node(25.0);
        let steady = model.steady_state_c(200.0, 25.0);
        assert!((steady - 75.0).abs() < 1e-9);
        for _ in 0..100 {
            model.step(200.0, 25.0, 10.0);
        }
        assert!((model.temp_c() - steady).abs() < 0.1);
    }

    #[test]
    fn heats_and_cools_monotonically() {
        let mut model = ThermalModel::server_node(25.0);
        let mut last = model.temp_c();
        for _ in 0..20 {
            let t = model.step(150.0, 25.0, 5.0);
            assert!(t >= last, "heating must be monotone");
            last = t;
        }
        for _ in 0..20 {
            let t = model.step(0.0, 25.0, 5.0);
            assert!(t <= last, "cooling must be monotone");
            last = t;
        }
    }

    #[test]
    fn exponential_step_is_exact_regardless_of_dt() {
        let mut fine = ThermalModel::server_node(25.0);
        let mut coarse = ThermalModel::server_node(25.0);
        for _ in 0..1000 {
            fine.step(120.0, 25.0, 0.1);
        }
        coarse.step(120.0, 25.0, 100.0);
        assert!((fine.temp_c() - coarse.temp_c()).abs() < 1e-6);
    }

    #[test]
    fn hotter_ambient_means_hotter_junction() {
        let mut winter = ThermalModel::server_node(18.0);
        let mut summer = ThermalModel::server_node(32.0);
        for _ in 0..50 {
            winter.step(180.0, 18.0, 10.0);
            summer.step(180.0, 32.0, 10.0);
        }
        assert!(summer.temp_c() - winter.temp_c() > 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_params_rejected() {
        let _ = ThermalModel::new(0.0, 100.0, 25.0);
    }

    #[test]
    fn try_new_rejects_bad_parameters_with_typed_errors() {
        assert!(ThermalModel::try_new(0.25, 200.0, 25.0).is_ok());
        assert!(ThermalModel::try_new(0.0, 200.0, 25.0).is_err());
        assert!(ThermalModel::try_new(-1.0, 200.0, 25.0).is_err());
        assert!(ThermalModel::try_new(0.25, 0.0, 25.0).is_err());
        assert!(ThermalModel::try_new(f64::NAN, 200.0, 25.0).is_err());
        assert!(ThermalModel::try_new(0.25, f64::INFINITY, 25.0).is_err());
        assert!(ThermalModel::try_new(0.25, 200.0, f64::NAN).is_err());
    }

    #[test]
    fn nan_inputs_do_not_poison_the_junction_state() {
        let mut model = ThermalModel::server_node(25.0);
        model.step(180.0, 25.0, 60.0);
        let before = model.temp_c();
        assert_eq!(model.step(f64::NAN, 25.0, 10.0), before);
        assert_eq!(model.step(180.0, f64::NAN, 10.0), before);
        assert_eq!(model.step(180.0, 25.0, f64::NAN), before);
        assert_eq!(model.step(180.0, 25.0, -5.0), before);
        assert!(model.temp_c().is_finite());
        // a good sample afterwards resumes the exact trajectory
        let t = model.step(180.0, 25.0, 10.0);
        assert!(t.is_finite() && t > before);
    }
}
