//! Service-level agreements over monitored metrics.
//!
//! The paper requires "guaranteeing SLA both at the server- and at the
//! application-side ... related to the performance of the application, but
//! also to the maximum power budget" (§IV). An [`Sla`] expresses one such
//! objective over a sensor; [`Sla::check`] classifies measurements and
//! accumulates a violation record used by the adaptive experiments (U2).

use crate::series::TimeSeries;
use std::fmt;

/// A service-level objective over one metric: the metric must stay at or
/// below the threshold (latency, power).
#[derive(Debug, Clone)]
pub struct Sla {
    name: String,
    threshold: f64,
    report: SlaReport,
    history: TimeSeries,
}

impl Sla {
    /// Creates an upper-bound SLA (`metric <= threshold`).
    pub fn upper_bound(name: impl Into<String>, threshold: f64) -> Self {
        Sla {
            name: name.into(),
            threshold,
            report: SlaReport::default(),
            history: TimeSeries::with_capacity(512),
        }
    }

    /// Objective name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns `true` if `value` satisfies the objective.
    fn satisfied_by(&self, value: f64) -> bool {
        value <= self.threshold
    }

    /// Checks a measurement, recording it and counting violations.
    /// Returns `true` when the objective is met.
    pub fn check(&mut self, time: f64, value: f64) -> bool {
        self.history.push(time, value);
        let ok = self.satisfied_by(value);
        self.report.record(ok);
        ok
    }

    /// Summary of all checks so far.
    pub fn report(&self) -> SlaReport {
        self.report
    }

    /// The recorded measurement history.
    pub fn history(&self) -> &TimeSeries {
        &self.history
    }
}

/// Violation summary of an [`Sla`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlaReport {
    /// Measurements checked.
    pub checked: u64,
    /// Measurements that violated the objective.
    pub violations: u64,
}

impl SlaReport {
    /// Counts one check, and a violation unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.checked += 1;
        self.violations += u64::from(!ok);
    }

    /// Fraction of checks that violated the objective (0 when unchecked).
    pub fn violation_rate(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.violations as f64 / self.checked as f64
        }
    }

    /// Error-budget burn rate against a target good fraction:
    /// `violation_rate / (1 − target)`. A burn of 1 consumes the budget
    /// exactly at the sustainable pace; above 1 exhausts it early.
    ///
    /// Edge behavior is explicit rather than clamped away:
    ///
    /// * **zero-sample window** (`checked == 0`): returns `0.0` — no
    ///   evidence is no burn, so an idle tenant decays instead of
    ///   holding its last rate;
    /// * **zero error budget** (`target >= 1.0`): a perfect record
    ///   returns `0.0`, any violation returns [`f64::INFINITY`] — a
    ///   "never fail" target is either met or blown, never partially
    ///   burned;
    /// * negative targets are treated as `0.0` (budget of one).
    pub fn burn_rate(&self, target: f64) -> f64 {
        if self.checked == 0 {
            return 0.0;
        }
        if target >= 1.0 {
            return if self.violations == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.violation_rate() / (1.0 - target.max(0.0))
    }
}

impl fmt::Display for SlaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} violations ({:.1}%)",
            self.violations,
            self.checked,
            100.0 * self.violation_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_checks() {
        let mut sla = Sla::upper_bound("latency", 0.5);
        assert!(sla.check(0.0, 0.3));
        assert!(!sla.check(1.0, 0.7));
        assert!(sla.check(2.0, 0.5), "boundary satisfies");
        let report = sla.report();
        assert_eq!(report.checked, 3);
        assert_eq!(report.violations, 1);
        assert!((report.violation_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_counts_checks_and_violations() {
        let mut report = SlaReport::default();
        for ok in [true, false, true, false, false] {
            report.record(ok);
        }
        assert_eq!(
            report,
            SlaReport {
                checked: 5,
                violations: 3
            }
        );
    }

    #[test]
    fn burn_rate_scales_violation_rate_by_budget() {
        let report = SlaReport {
            checked: 1000,
            violations: 1,
        };
        // 0.1% violations against a 99.9% target: burning at exactly 1×
        assert!((report.burn_rate(0.999) - 1.0).abs() < 1e-9);
        // same violations against a 99.99% target: 10× over budget
        assert!((report.burn_rate(0.9999) - 10.0).abs() < 1e-6);
        // a perfect record burns nothing at any target
        let clean = SlaReport {
            checked: 50,
            violations: 0,
        };
        assert_eq!(clean.burn_rate(0.999), 0.0);
    }

    #[test]
    fn burn_rate_edge_sentinels() {
        // zero-sample window: no evidence is no burn, at any target
        let empty = SlaReport::default();
        for target in [-1.0, 0.0, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(empty.burn_rate(target), 0.0, "target {target}");
        }
        // zero error budget: met or blown, never in between
        let clean = SlaReport {
            checked: 50,
            violations: 0,
        };
        let dirty = SlaReport {
            checked: 1000,
            violations: 1,
        };
        assert_eq!(clean.burn_rate(1.0), 0.0);
        assert_eq!(dirty.burn_rate(1.0), f64::INFINITY);
        assert_eq!(dirty.burn_rate(1.5), f64::INFINITY);
        // negative targets degrade to a budget of one
        assert_eq!(dirty.burn_rate(-3.0), dirty.violation_rate());
    }

    /// Hand-rolled xorshift so the property sweep needs no rand dep.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn burn_rate_properties_hold_over_random_reports() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..2000 {
            let checked = next(&mut state) % 10_000;
            let violations = if checked == 0 {
                0
            } else {
                next(&mut state) % (checked + 1)
            };
            let report = SlaReport {
                checked,
                violations,
            };
            let target = (next(&mut state) % 1_000_000) as f64 / 1_000_000.0;
            let burn = report.burn_rate(target);
            // non-negative, finite for any sub-unit target
            assert!(burn >= 0.0);
            assert!(burn.is_finite(), "target {target} must have a budget");
            // monotone in violations: one more violation never lowers it
            if violations < checked {
                let worse = SlaReport {
                    checked,
                    violations: violations + 1,
                };
                assert!(worse.burn_rate(target) >= burn);
            }
            // monotone in target: a stricter target never lowers it
            let stricter = (target + 0.5).min(0.999_999);
            assert!(report.burn_rate(stricter) >= burn - 1e-12);
            // burn × budget recovers the violation rate
            let budget = 1.0 - target;
            assert!((burn * budget - report.violation_rate()).abs() < 1e-9);
        }
    }

    #[test]
    fn report_display() {
        let mut sla = Sla::upper_bound("x", 1.0);
        sla.check(0.0, 2.0);
        assert_eq!(sla.report().to_string(), "1/1 violations (100.0%)");
    }

    #[test]
    fn history_recorded() {
        let mut sla = Sla::upper_bound("x", 1.0);
        for i in 0..5 {
            sla.check(i as f64, i as f64);
        }
        assert_eq!(sla.history().len(), 5);
    }
}
