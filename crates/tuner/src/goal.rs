//! Objectives and constraints over measured metrics.

use crate::intern::{intern, SymbolId};
use std::fmt;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Direction {
    /// Smaller is better.
    Minimize,
    /// Larger is better.
    Maximize,
}

/// The tuning objective: one metric plus a direction.
///
/// The metric name is interned at construction, so the per-selection
/// hot path compares a dense id instead of a string.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    metric: SymbolId,
    direction: Direction,
}

impl Objective {
    /// Minimizes `metric`.
    pub fn minimize(metric: impl AsRef<str>) -> Self {
        Objective {
            metric: intern(metric.as_ref()),
            direction: Direction::Minimize,
        }
    }

    /// Maximizes `metric`.
    pub fn maximize(metric: impl AsRef<str>) -> Self {
        Objective {
            metric: intern(metric.as_ref()),
            direction: Direction::Maximize,
        }
    }

    /// The metric name.
    pub(crate) fn metric(&self) -> &str {
        self.metric.name()
    }

    /// The interned metric id.
    pub fn metric_id(&self) -> SymbolId {
        self.metric
    }

    /// The direction.
    pub(crate) fn direction(&self) -> Direction {
        self.direction
    }

    /// Maps a metric value to a score where larger is always better.
    pub fn score(&self, value: f64) -> f64 {
        match self.direction {
            Direction::Minimize => -value,
            Direction::Maximize => value,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.direction {
            Direction::Minimize => write!(f, "minimize {}", self.metric),
            Direction::Maximize => write!(f, "maximize {}", self.metric),
        }
    }
}

/// A feasibility constraint on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    metric: SymbolId,
    bound: f64,
    upper: bool,
}

impl Constraint {
    /// Requires `metric <= bound`.
    pub fn at_most(metric: impl AsRef<str>, bound: f64) -> Self {
        Constraint {
            metric: intern(metric.as_ref()),
            bound,
            upper: true,
        }
    }

    /// Requires `metric >= bound`.
    pub fn at_least(metric: impl AsRef<str>, bound: f64) -> Self {
        Constraint {
            metric: intern(metric.as_ref()),
            bound,
            upper: false,
        }
    }

    /// The constrained metric.
    pub fn metric(&self) -> &str {
        self.metric.name()
    }

    /// The interned metric id.
    pub(crate) fn metric_id(&self) -> SymbolId {
        self.metric
    }

    /// Adjusts the bound (runtime SLA renegotiation).
    pub fn set_bound(&mut self, bound: f64) {
        self.bound = bound;
    }

    /// Returns `true` if `value` satisfies the constraint.
    pub(crate) fn satisfied_by(&self, value: f64) -> bool {
        if self.upper {
            value <= self.bound
        } else {
            value >= self.bound
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.upper { "<=" } else { ">=" };
        write!(f, "{} {op} {}", self.metric, self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_scores() {
        let min = Objective::minimize("time");
        assert_eq!(min.to_string(), "minimize time");
    }

    #[test]
    fn constraint_directions() {
        let upper = Constraint::at_most("power", 200.0);
        assert!(upper.satisfied_by(150.0));
        assert!(upper.satisfied_by(200.0));
        assert!(!upper.satisfied_by(250.0));
        let lower = Constraint::at_least("quality", 0.9);
        assert!(lower.satisfied_by(0.95));
        assert!(!lower.satisfied_by(0.8));
        assert_eq!(upper.to_string(), "power <= 200");
    }

    #[test]
    fn renegotiation() {
        let mut c = Constraint::at_most("latency", 1.0);
        c.set_bound(2.0);
        assert!(c.satisfied_by(1.5));
    }

    #[test]
    fn metric_ids_are_interned_once() {
        let a = Objective::minimize("goal-test-metric");
        let b = Constraint::at_most("goal-test-metric", 1.0);
        assert_eq!(a.metric_id(), b.metric_id());
        assert_eq!(a.metric(), "goal-test-metric");
    }
}
