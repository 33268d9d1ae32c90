//! CADA safe mode: fall back to the last known-good configuration.
//!
//! An online tuner explores; exploration occasionally lands on a
//! configuration that violates the SLA. Under normal conditions the
//! learner recovers on its own, but during a fault episode (degraded
//! interconnect, gray nodes, sensor loss) continued exploration can
//! chain violations. [`SafeModeGuard`] watches the per-round SLA
//! verdict and, after [`SafeModeGuard::trip_threshold`] consecutive
//! violations, *trips*: it orders the controller back to the last
//! configuration that sustained a clean streak, and holds there until
//! [`SafeModeGuard::recovery_threshold`] consecutive clean rounds pass,
//! at which point exploration resumes.
//!
//! The guard is deliberately tiny and policy-free: it neither knows the
//! design space nor measures anything — it consumes a boolean per CADA
//! round and a reference to the configuration that produced it, and
//! emits a [`SafeModeAction`]. This keeps it composable with any
//! controller ([`AppManager`](crate::manager::AppManager) or the bench
//! campaign's governor loop).

use crate::space::Configuration;

/// What the controller should do after a round, as decided by the
/// guard.
#[derive(Debug, Clone, PartialEq)]
pub enum SafeModeAction {
    /// Keep exploring normally.
    Normal,
    /// Trip: switch to the embedded last-known-good configuration and
    /// stop exploring.
    Engage(Configuration),
    /// Already in safe mode: stay on the known-good configuration.
    Hold,
    /// Enough clean rounds in safe mode: resume exploration.
    Release,
}

/// Consecutive-violation trip switch with hysteresis.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeModeGuard {
    /// Consecutive SLA violations that trip safe mode.
    pub trip_threshold: u32,
    /// Consecutive clean rounds (while engaged) that release it.
    pub recovery_threshold: u32,
    last_known_good: Option<Configuration>,
    good_streak: u32,
    bad_streak: u32,
    engaged: bool,
    trips: u64,
}

impl SafeModeGuard {
    /// Creates a guard tripping after `trip_threshold` consecutive
    /// violations and releasing after `recovery_threshold` consecutive
    /// clean rounds.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    pub fn new(trip_threshold: u32, recovery_threshold: u32) -> Self {
        assert!(trip_threshold > 0, "trip threshold must be positive");
        assert!(
            recovery_threshold > 0,
            "recovery threshold must be positive"
        );
        SafeModeGuard {
            trip_threshold,
            recovery_threshold,
            last_known_good: None,
            good_streak: 0,
            bad_streak: 0,
            engaged: false,
            trips: 0,
        }
    }

    /// Feeds one CADA round: whether the SLA held and which
    /// configuration was active. Returns the action the controller
    /// must take before the next round.
    pub fn record_round(&mut self, sla_ok: bool, current: &Configuration) -> SafeModeAction {
        if self.engaged {
            if sla_ok {
                self.good_streak += 1;
                if self.good_streak >= self.recovery_threshold {
                    self.engaged = false;
                    self.bad_streak = 0;
                    return SafeModeAction::Release;
                }
            } else {
                self.good_streak = 0;
            }
            return SafeModeAction::Hold;
        }
        if sla_ok {
            self.bad_streak = 0;
            self.good_streak += 1;
            // a configuration is "known good" once it sustains a clean
            // streak as long as the trip threshold — a single lucky
            // round is not a safe harbour
            if self.good_streak >= self.trip_threshold {
                self.last_known_good = Some(current.clone());
            }
            SafeModeAction::Normal
        } else {
            self.good_streak = 0;
            self.bad_streak += 1;
            if self.bad_streak >= self.trip_threshold {
                if let Some(good) = self.last_known_good.clone() {
                    self.engaged = true;
                    self.trips += 1;
                    self.good_streak = 0;
                    return SafeModeAction::Engage(good);
                }
                // nothing known good yet: keep exploring, there is no
                // safer place to go
            }
            SafeModeAction::Normal
        }
    }

    /// How many times the guard has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::KnobValue;

    fn config(v: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("unroll", KnobValue::Int(v));
        c
    }

    #[test]
    fn trips_after_consecutive_violations() {
        let mut guard = SafeModeGuard::new(3, 2);
        // qualify config 1 as known-good
        for t in 0..3 {
            assert_eq!(
                guard.record_round(true, &config(1)),
                SafeModeAction::Normal,
                "round {t}"
            );
        }
        assert_eq!(guard.last_known_good.as_ref(), Some(&config(1)));
        // two violations: not yet
        assert_eq!(
            guard.record_round(false, &config(9)),
            SafeModeAction::Normal
        );
        assert_eq!(
            guard.record_round(false, &config(9)),
            SafeModeAction::Normal
        );
        assert!(!guard.engaged);
        // third trips
        assert_eq!(
            guard.record_round(false, &config(9)),
            SafeModeAction::Engage(config(1))
        );
        assert!(guard.engaged);
        assert_eq!(guard.trips(), 1);
    }

    #[test]
    fn interleaved_successes_reset_the_streak() {
        let mut guard = SafeModeGuard::new(2, 1);
        for _ in 0..2 {
            guard.record_round(true, &config(1));
        }
        for _ in 0..10 {
            assert_eq!(
                guard.record_round(false, &config(2)),
                SafeModeAction::Normal
            );
            assert_eq!(guard.record_round(true, &config(1)), SafeModeAction::Normal);
        }
        assert!(!guard.engaged, "alternating rounds must never trip");
    }

    #[test]
    fn releases_after_recovery_streak() {
        let mut guard = SafeModeGuard::new(2, 3);
        guard.record_round(true, &config(1));
        guard.record_round(true, &config(1));
        guard.record_round(false, &config(5));
        assert!(matches!(
            guard.record_round(false, &config(5)),
            SafeModeAction::Engage(_)
        ));
        // clean, clean, violation resets, then three clean release
        assert_eq!(guard.record_round(true, &config(1)), SafeModeAction::Hold);
        assert_eq!(guard.record_round(true, &config(1)), SafeModeAction::Hold);
        assert_eq!(guard.record_round(false, &config(1)), SafeModeAction::Hold);
        assert_eq!(guard.record_round(true, &config(1)), SafeModeAction::Hold);
        assert_eq!(guard.record_round(true, &config(1)), SafeModeAction::Hold);
        assert_eq!(
            guard.record_round(true, &config(1)),
            SafeModeAction::Release
        );
        assert!(!guard.engaged);
    }

    #[test]
    fn never_trips_without_a_known_good() {
        let mut guard = SafeModeGuard::new(2, 1);
        for _ in 0..10 {
            assert_eq!(
                guard.record_round(false, &config(7)),
                SafeModeAction::Normal
            );
        }
        assert!(!guard.engaged);
        assert_eq!(guard.trips(), 0);
    }

    #[test]
    fn lucky_single_round_does_not_qualify_as_known_good() {
        let mut guard = SafeModeGuard::new(3, 1);
        guard.record_round(true, &config(1));
        assert_eq!(guard.last_known_good.as_ref(), None);
        guard.record_round(true, &config(1));
        guard.record_round(true, &config(1));
        assert_eq!(guard.last_known_good.as_ref(), Some(&config(1)));
    }

    #[test]
    fn can_retrip_after_release() {
        let mut guard = SafeModeGuard::new(1, 1);
        guard.record_round(true, &config(1));
        assert!(matches!(
            guard.record_round(false, &config(2)),
            SafeModeAction::Engage(_)
        ));
        assert_eq!(
            guard.record_round(true, &config(1)),
            SafeModeAction::Release
        );
        assert!(matches!(
            guard.record_round(false, &config(3)),
            SafeModeAction::Engage(_)
        ));
        assert_eq!(guard.trips(), 2);
    }

    #[test]
    #[should_panic(expected = "trip threshold")]
    fn zero_trip_threshold_rejected() {
        let _ = SafeModeGuard::new(0, 1);
    }
}
