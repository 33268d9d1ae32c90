//! Sensor-loss tolerance: hold-last-value with an EWMA fallback.
//!
//! Thermal and power telemetry on a real machine is lossy: sensors
//! drop readings, I²C buses time out, and firmware occasionally
//! freezes a register so the same stale value repeats forever. A
//! control loop that feeds `NaN` (or a frozen 45 °C) straight into a
//! power capper either poisons every downstream mean or happily burns
//! past the thermal limit. [`ResilientSensor`] sits between a raw
//! reading and the controller and always produces a usable estimate,
//! tagged with how trustworthy it is:
//!
//! 1. **Fresh** — the reading arrived and is finite; it also updates a
//!    long-running EWMA of the signal.
//! 2. **Held** — the reading is missing (or non-finite, which is
//!    treated as missing); the last fresh value is repeated, for at
//!    most [`ResilientSensor::max_hold_s`] seconds.
//! 3. **Ewma** — the outage outlived the hold window; the estimate
//!    decays toward the long-term EWMA, which is robust to whatever
//!    transient the signal was riding when it vanished.
//! 4. **Unavailable** — nothing was ever observed; the caller must use
//!    its own safe default (e.g. assume the thermal limit).
//!
//! The struct is deliberately monitor-side and value-only: the fault
//! injector (`antarex_sim::faults`) reports *that* a sensor is stuck
//! and since when, while this type owns the last-read value — keeping
//! the injector pure and the policy in one place.

/// How the estimate returned by [`ResilientSensor::observe`] was
/// obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// A finite reading arrived; the estimate is the reading.
    Fresh,
    /// Reading missing; the last fresh value is being held.
    Held,
    /// Outage exceeded the hold window; estimate fell back to the EWMA.
    Ewma,
    /// No fresh reading has ever been seen.
    Unavailable,
}

/// The estimate and its provenance for one observation instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Best available value, if any reading was ever seen.
    pub value: Option<f64>,
    /// How the value was produced.
    pub fill: Fill,
}

/// A single sensor channel hardened against dropouts.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientSensor {
    /// Maximum age of a held value before falling back to the EWMA,
    /// seconds.
    pub max_hold_s: f64,
    /// EWMA smoothing factor in `(0, 1]`; the long-term average tracks
    /// `avg += alpha * (reading - avg)` on every fresh reading.
    pub alpha: f64,
    last_value: Option<f64>,
    last_fresh_at: f64,
    ewma: Option<f64>,
}

impl ResilientSensor {
    /// Creates a channel holding values up to `max_hold_s` and
    /// smoothing with `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `max_hold_s` is negative or `alpha` is outside
    /// `(0, 1]`.
    pub(crate) fn new(max_hold_s: f64, alpha: f64) -> Self {
        assert!(max_hold_s >= 0.0, "hold window must be non-negative");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        ResilientSensor {
            max_hold_s,
            alpha,
            last_value: None,
            last_fresh_at: f64::NEG_INFINITY,
            ewma: None,
        }
    }

    /// A sensible default for thermal telemetry sampled every few
    /// seconds: hold for 30 s, EWMA with α = 0.05.
    pub fn thermal() -> Self {
        ResilientSensor::new(30.0, 0.05)
    }

    /// Feeds one observation instant. `reading` is `None` when the
    /// sensor dropped out; non-finite readings are treated as missing
    /// (a NaN must never escape into the control loop).
    pub fn observe(&mut self, time_s: f64, reading: Option<f64>) -> Estimate {
        match reading {
            Some(v) if v.is_finite() => {
                self.last_value = Some(v);
                self.last_fresh_at = time_s;
                self.ewma = Some(match self.ewma {
                    Some(avg) => avg + self.alpha * (v - avg),
                    None => v,
                });
                Estimate {
                    value: Some(v),
                    fill: Fill::Fresh,
                }
            }
            _ => match self.last_value {
                None => Estimate {
                    value: None,
                    fill: Fill::Unavailable,
                },
                Some(held) => {
                    if time_s - self.last_fresh_at <= self.max_hold_s {
                        Estimate {
                            value: Some(held),
                            fill: Fill::Held,
                        }
                    } else {
                        Estimate {
                            value: self.ewma,
                            fill: Fill::Ewma,
                        }
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_readings_pass_through() {
        let mut s = ResilientSensor::new(10.0, 0.5);
        let e = s.observe(0.0, Some(40.0));
        assert_eq!(e.value, Some(40.0));
        assert_eq!(e.fill, Fill::Fresh);
    }

    #[test]
    fn short_outage_holds_last_value() {
        let mut s = ResilientSensor::new(10.0, 0.5);
        s.observe(0.0, Some(42.0));
        let e = s.observe(5.0, None);
        assert_eq!(
            e,
            Estimate {
                value: Some(42.0),
                fill: Fill::Held
            }
        );
        // boundary: exactly max_hold_s still holds
        let e = s.observe(10.0, None);
        assert_eq!(e.fill, Fill::Held);
    }

    #[test]
    fn long_outage_falls_back_to_ewma() {
        let mut s = ResilientSensor::new(10.0, 0.5);
        s.observe(0.0, Some(40.0));
        s.observe(1.0, Some(60.0)); // ewma = 50
        let e = s.observe(20.0, None);
        assert_eq!(
            e,
            Estimate {
                value: Some(50.0),
                fill: Fill::Ewma
            }
        );
    }

    #[test]
    fn nan_and_infinite_are_missing() {
        let mut s = ResilientSensor::new(10.0, 0.5);
        let mut fills = vec![s.observe(0.0, Some(45.0)).fill];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = s.observe(1.0, Some(bad));
            assert_eq!(e.value, Some(45.0), "no NaN may escape");
            fills.push(e.fill);
        }
        assert_eq!(fills, [Fill::Fresh, Fill::Held, Fill::Held, Fill::Held]);
    }

    #[test]
    fn never_observed_is_unavailable() {
        let mut s = ResilientSensor::thermal();
        let e = s.observe(0.0, None);
        assert_eq!(
            e,
            Estimate {
                value: None,
                fill: Fill::Unavailable
            }
        );
    }

    #[test]
    fn recovery_resets_hold_clock() {
        let mut s = ResilientSensor::new(10.0, 0.5);
        s.observe(0.0, Some(40.0));
        s.observe(50.0, Some(44.0)); // fresh again, late
        let e = s.observe(55.0, None);
        assert_eq!(
            e,
            Estimate {
                value: Some(44.0),
                fill: Fill::Held
            }
        );
    }

    #[test]
    fn fresh_and_missing_readings_are_counted() {
        let mut s = ResilientSensor::thermal();
        let fills = [
            (0.0, Some(40.0)),
            (1.0, None),
            (2.0, None),
            (3.0, Some(41.0)),
        ]
        .map(|(t, reading)| s.observe(t, reading).fill);
        let fresh = fills.iter().filter(|&&f| f == Fill::Fresh).count();
        assert_eq!((fresh, fills.len() - fresh), (2, 2));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = ResilientSensor::new(10.0, 0.0);
    }
}
