//! Cooling plant, seasonal ambient temperature and PUE accounting.
//!
//! Paper §V: "environmental conditions, such as ambient temperature, can
//! significantly change the overall cooling efficiency of a supercomputer,
//! causing more than 10% Power usage effectiveness (PUE) loss when
//! transitioning from winter to summer" (citing the MS3 scheduler work).
//! The plant here combines free cooling (cheap, available when the
//! outside air is cold enough) with a chiller whose coefficient of
//! performance degrades as the condenser-side (ambient) temperature
//! rises.
//!
//! Every public method sanitizes ambient temperature: finite inputs are
//! clamped to the physically meaningful `AMBIENT_MIN_C`..`AMBIENT_MAX_C`
//! band; NaN/∞ fall back to assume-worst (`AMBIENT_MAX_C`) so a lying
//! weather sensor can only shrink the budget, never blow the cap.

/// Coldest ambient temperature the models accept, °C.
pub(crate) const AMBIENT_MIN_C: f64 = -40.0;
/// Hottest ambient temperature the models accept, °C — also the
/// assume-worst fallback for non-finite readings.
pub(crate) const AMBIENT_MAX_C: f64 = 60.0;

/// Clamps a finite ambient reading into the accepted band; non-finite
/// readings fall back to assume-worst ([`AMBIENT_MAX_C`]).
pub(crate) fn sanitize_ambient_c(ambient_c: f64) -> f64 {
    if ambient_c.is_finite() {
        ambient_c.clamp(AMBIENT_MIN_C, AMBIENT_MAX_C)
    } else {
        AMBIENT_MAX_C
    }
}

/// Cooling-plant parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingPlant {
    /// Ambient temperature below which free cooling covers the full load.
    pub free_cooling_limit_c: f64,
    /// Fan/pump power as a fraction of IT power under free cooling.
    pub free_cooling_overhead: f64,
    /// Carnot efficiency fraction of the chiller (real chillers achieve
    /// 40–60% of the Carnot COP).
    pub chiller_carnot_fraction: f64,
    /// Chilled-water supply temperature, °C.
    pub chw_supply_c: f64,
    /// Facility distribution overhead (UPS, lighting) as a fraction of IT
    /// power, always present.
    pub distribution_overhead: f64,
}

impl CoolingPlant {
    /// A modern European data centre: free cooling up to 14 °C ambient,
    /// 18 °C chilled water, 45% of Carnot, 8% distribution losses.
    pub fn european_datacenter() -> Self {
        CoolingPlant {
            free_cooling_limit_c: 14.0,
            free_cooling_overhead: 0.06,
            chiller_carnot_fraction: 0.45,
            chw_supply_c: 18.0,
            distribution_overhead: 0.08,
        }
    }

    /// Chiller coefficient of performance at the given ambient
    /// temperature (∞ is never returned; COP is clamped to `[1, 20]`,
    /// so the efficiency stays finite even near the free-cooling
    /// crossover where the temperature lift collapses).
    pub(crate) fn chiller_cop(&self, ambient_c: f64) -> f64 {
        let ambient_c = sanitize_ambient_c(ambient_c);
        let t_cold = self.chw_supply_c + 273.15;
        // condenser runs ~10 °C above ambient
        let t_hot = ambient_c + 10.0 + 273.15;
        let lift = (t_hot - t_cold).max(1.0);
        (self.chiller_carnot_fraction * t_cold / lift).clamp(1.0, 20.0)
    }

    /// Non-IT facility power as a fraction of IT power at the given
    /// ambient temperature (fans + chiller share + distribution). In
    /// this linear plant model the fraction is load-independent, which
    /// makes it the natural currency for budget arithmetic:
    /// `facility_power = it_power · (1 + overhead_fraction)`.
    pub fn overhead_fraction(&self, ambient_c: f64) -> f64 {
        let ambient_c = sanitize_ambient_c(ambient_c);
        let chiller_share = ((ambient_c - self.free_cooling_limit_c) / 10.0).clamp(0.0, 1.0);
        let chiller = chiller_share / self.chiller_cop(ambient_c);
        self.free_cooling_overhead + chiller + self.distribution_overhead
    }

    /// The IT power that fits under a total facility cap at the given
    /// ambient temperature: `cap / (1 + overhead_fraction)`. A hot
    /// afternoon raises the cooling overhead, so the same facility cap
    /// buys less compute.
    pub fn it_budget_w(&self, facility_cap_w: f64, ambient_c: f64) -> f64 {
        let cap = if facility_cap_w.is_finite() {
            facility_cap_w.max(0.0)
        } else {
            0.0
        };
        cap / (1.0 + self.overhead_fraction(ambient_c))
    }

    /// Cooling power drawn to remove `it_power_w` of heat at the given
    /// ambient temperature.
    pub(crate) fn cooling_power_w(&self, it_power_w: f64, ambient_c: f64) -> f64 {
        let ambient_c = sanitize_ambient_c(ambient_c);
        if ambient_c <= self.free_cooling_limit_c {
            return it_power_w * self.free_cooling_overhead;
        }
        // partial free cooling tapers off linearly over a 10 °C band
        let chiller_share = ((ambient_c - self.free_cooling_limit_c) / 10.0).clamp(0.0, 1.0);
        let chiller_power = it_power_w * chiller_share / self.chiller_cop(ambient_c);
        let fan_power = it_power_w * self.free_cooling_overhead;
        chiller_power + fan_power
    }

    /// Power usage effectiveness at the given ambient temperature:
    /// `(IT + cooling + distribution) / IT`.
    pub fn pue(&self, it_power_w: f64, ambient_c: f64) -> f64 {
        if it_power_w <= 0.0 {
            return f64::INFINITY;
        }
        let cooling = self.cooling_power_w(it_power_w, ambient_c);
        let distribution = it_power_w * self.distribution_overhead;
        (it_power_w + cooling + distribution) / it_power_w
    }
}

/// Mean daily ambient temperature (°C) for a day of the year in a
/// continental European climate: a sinusoid from ≈2 °C (late January) to
/// ≈26 °C (late July).
pub fn ambient_temp_c(day_of_year: u32) -> f64 {
    let day = f64::from(day_of_year % 365);
    // minimum around day 25, maximum around day 207
    14.0 + 12.0 * ((day - 207.0) / 365.0 * std::f64::consts::TAU).cos()
}

/// Representative winter day (mid-January).
pub const WINTER_DAY: u32 = 15;
/// Representative summer day (mid-July).
pub const SUMMER_DAY: u32 = 196;

/// Ambient temperature during a heat-wave afternoon: ramps smoothly
/// from `start_c` to `peak_c` over `ramp_s` seconds (smoothstep, so the
/// controller sees a continuous derivative), then holds the peak.
pub fn heat_wave_ambient_c(time_s: f64, start_c: f64, peak_c: f64, ramp_s: f64) -> f64 {
    let start_c = sanitize_ambient_c(start_c);
    let peak_c = sanitize_ambient_c(peak_c);
    if !time_s.is_finite() || !ramp_s.is_finite() || ramp_s <= 0.0 {
        return peak_c;
    }
    let x = (time_s / ramp_s).clamp(0.0, 1.0);
    let s = x * x * (3.0 - 2.0 * x);
    start_c + (peak_c - start_c) * s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasons_have_the_right_shape() {
        let winter = ambient_temp_c(WINTER_DAY);
        let summer = ambient_temp_c(SUMMER_DAY);
        assert!(winter < 8.0, "winter {winter}");
        assert!(summer > 22.0, "summer {summer}");
        // continuous across the year boundary
        assert!((ambient_temp_c(364) - ambient_temp_c(0)).abs() < 0.5);
    }

    #[test]
    fn cop_degrades_with_ambient() {
        let plant = CoolingPlant::european_datacenter();
        assert!(plant.chiller_cop(15.0) > plant.chiller_cop(35.0));
        assert!(plant.chiller_cop(35.0) >= 1.0);
    }

    #[test]
    fn winter_pue_beats_summer_by_over_10_percent() {
        // the paper's §V claim (C4)
        let plant = CoolingPlant::european_datacenter();
        let it = 1e6; // 1 MW of IT load
        let winter = plant.pue(it, ambient_temp_c(WINTER_DAY));
        let summer = plant.pue(it, ambient_temp_c(SUMMER_DAY));
        assert!(winter < summer);
        let loss = (summer - winter) / winter;
        assert!(
            loss > 0.10,
            "summer PUE {summer:.3} vs winter {winter:.3}: loss {loss:.3} <= 10%"
        );
        // both stay in a realistic band
        assert!((1.05..1.35).contains(&winter), "winter PUE {winter}");
        assert!((1.15..1.7).contains(&summer), "summer PUE {summer}");
    }

    #[test]
    fn free_cooling_is_cheap() {
        let plant = CoolingPlant::european_datacenter();
        let cold = plant.cooling_power_w(1e6, 5.0);
        let hot = plant.cooling_power_w(1e6, 30.0);
        assert!(cold < 0.1e6);
        assert!(hot > 2.0 * cold);
    }

    #[test]
    fn pue_of_zero_it_power_is_infinite() {
        let plant = CoolingPlant::european_datacenter();
        assert!(plant.pue(0.0, 20.0).is_infinite());
    }

    #[test]
    fn non_finite_ambient_assumes_worst() {
        let plant = CoolingPlant::european_datacenter();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                plant.overhead_fraction(bad),
                plant.overhead_fraction(AMBIENT_MAX_C)
            );
            assert_eq!(plant.chiller_cop(bad), plant.chiller_cop(AMBIENT_MAX_C));
            assert_eq!(
                plant.cooling_power_w(1e6, bad),
                plant.cooling_power_w(1e6, AMBIENT_MAX_C)
            );
        }
        // sub-zero and absurd ambients clamp instead of extrapolating
        assert_eq!(
            plant.overhead_fraction(-200.0),
            plant.overhead_fraction(AMBIENT_MIN_C)
        );
        assert_eq!(
            plant.overhead_fraction(500.0),
            plant.overhead_fraction(AMBIENT_MAX_C)
        );
    }

    #[test]
    fn it_budget_assumes_worst_on_bad_inputs() {
        let plant = CoolingPlant::european_datacenter();
        let ok = plant.it_budget_w(1e6, 20.0);
        assert!(ok > 0.0 && ok < 1e6);
        assert_eq!(plant.it_budget_w(f64::NAN, 20.0), 0.0);
        assert_eq!(
            plant.it_budget_w(1e6, f64::NAN),
            plant.it_budget_w(1e6, AMBIENT_MAX_C)
        );
    }

    /// Property: over the full accepted ambient band (including the
    /// free-cooling crossover at 14 °C and the taper knee at 24 °C),
    /// efficiency stays finite and monotone — overhead never decreases
    /// with ambient, COP never increases, and the usable IT budget under
    /// a fixed cap never grows on a hotter day.
    #[test]
    fn efficiency_is_finite_and_monotone_over_ambient_sweep() {
        let plant = CoolingPlant::european_datacenter();
        let cap = 1.6e6;
        let mut prev_overhead = f64::NEG_INFINITY;
        let mut prev_cop = f64::INFINITY;
        let mut prev_budget = f64::INFINITY;
        let mut a = AMBIENT_MIN_C;
        while a <= AMBIENT_MAX_C {
            let overhead = plant.overhead_fraction(a);
            let cop = plant.chiller_cop(a);
            let budget = plant.it_budget_w(cap, a);
            let pue = plant.pue(1e6, a);
            assert!(
                overhead.is_finite() && overhead >= 0.0,
                "overhead at {a}: {overhead}"
            );
            assert!((1.0..=20.0).contains(&cop), "cop at {a}: {cop}");
            assert!(
                budget.is_finite() && budget > 0.0,
                "budget at {a}: {budget}"
            );
            assert!(pue.is_finite() && pue >= 1.0, "pue at {a}: {pue}");
            assert!(overhead >= prev_overhead - 1e-12, "overhead dips at {a}");
            assert!(cop <= prev_cop + 1e-12, "cop rises at {a}");
            assert!(budget <= prev_budget + 1e-9, "budget grows at {a}");
            prev_overhead = overhead;
            prev_cop = cop;
            prev_budget = budget;
            a += 0.125;
        }
    }

    #[test]
    fn heat_wave_ramp_is_smooth_and_bounded() {
        let (start, peak, ramp) = (14.0, 33.0, 5400.0);
        assert_eq!(heat_wave_ambient_c(0.0, start, peak, ramp), start);
        assert_eq!(heat_wave_ambient_c(ramp, start, peak, ramp), peak);
        assert_eq!(heat_wave_ambient_c(ramp * 3.0, start, peak, ramp), peak);
        let mut prev = start;
        let mut t = 0.0;
        while t <= ramp {
            let a = heat_wave_ambient_c(t, start, peak, ramp);
            assert!((start..=peak).contains(&a));
            assert!(a >= prev - 1e-12, "ramp must be monotone");
            prev = a;
            t += 30.0;
        }
        // degenerate inputs collapse to the (sanitized) peak
        assert_eq!(heat_wave_ambient_c(f64::NAN, start, peak, ramp), peak);
        assert_eq!(heat_wave_ambient_c(100.0, start, peak, 0.0), peak);
        assert_eq!(
            heat_wave_ambient_c(ramp, start, f64::NAN, ramp),
            AMBIENT_MAX_C
        );
    }
}
