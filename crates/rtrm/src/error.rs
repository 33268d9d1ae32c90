//! Typed errors for the resource-management control plane.
//!
//! A facility controller that re-splits its budget every few virtual
//! seconds cannot afford a panic because one telemetry sample carried a
//! NaN. Constructors in [`crate::cluster_ctrl`] and [`crate::powercap`]
//! validate their budgets, and [`crate::scheduler::BatchScheduler`] its
//! jobs, and return [`RtrmError`] instead.

use std::fmt;

/// An invalid input to an RTRM control-plane API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtrmError {
    /// A power budget or cap that must be strictly positive and finite
    /// was not.
    InvalidBudget {
        /// Which budget.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A batch job the scheduler cannot place: its runtime estimate is
    /// negative or not finite, or it wants more nodes than the pool
    /// holds.
    InvalidJob {
        /// The job's id.
        job: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for RtrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtrmError::InvalidBudget { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            RtrmError::InvalidJob { job, reason } => write!(f, "job {job}: {reason}"),
        }
    }
}

impl std::error::Error for RtrmError {}

/// Validates a budget/cap value: must be finite and strictly positive.
pub(crate) fn check_budget_w(what: &'static str, value: f64) -> Result<f64, RtrmError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(RtrmError::InvalidBudget { what, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RtrmError::InvalidBudget {
            what: "budget",
            value: -1.0
        }
        .to_string()
        .contains("positive"));
    }

    #[test]
    fn budget_check_accepts_only_positive_finite() {
        assert!(check_budget_w("b", 100.0).is_ok());
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(check_budget_w("b", bad).is_err(), "{bad}");
        }
    }
}
