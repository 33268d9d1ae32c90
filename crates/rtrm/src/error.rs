//! Typed errors for the resource-management control plane.
//!
//! A facility controller that re-splits its budget every few virtual
//! seconds cannot afford a panic because one telemetry sample carried a
//! NaN or a crashed node shrank the alive set to zero. Constructors and
//! phase runners in [`crate::hierarchy`] and [`crate::powercap`] expose
//! `try_` variants returning [`RtrmError`]; the legacy panicking forms
//! remain as thin `expect` wrappers so existing callers compile.

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
    /// Two parallel collections that must line up did not (e.g. one
    /// work list per node).
    ShapeMismatch {
        /// What must match.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// An operation needed at least one alive node and found none.
    NoAliveNodes,
}

impl fmt::Display for RtrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtrmError::InvalidBudget { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            RtrmError::ShapeMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected {expected}, got {actual}"),
            RtrmError::NoAliveNodes => write!(f, "no alive nodes to manage"),
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
        assert!(RtrmError::ShapeMismatch {
            what: "one work list per node",
            expected: 4,
            actual: 3
        }
        .to_string()
        .contains("expected 4"));
        assert!(RtrmError::NoAliveNodes.to_string().contains("alive"));
    }

    #[test]
    fn budget_check_accepts_only_positive_finite() {
        assert!(check_budget_w("b", 100.0).is_ok());
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(check_budget_w("b", bad).is_err(), "{bad}");
        }
    }
}
