//! Typed errors for the physical models.
//!
//! The simulator sits under control loops that must keep running when a
//! sensor lies or a config carries a NaN; panicking constructors are
//! fine for test fixtures but not for a facility controller that
//! re-derives its cooling budget every step. Model entry points that
//! can be fed bad numbers offer `try_` variants returning [`SimError`],
//! while the legacy panicking forms remain as thin wrappers.

use std::fmt;

/// An invalid input to one of the physical models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SimError {
    /// A quantity that must be finite was NaN or infinite.
    NonFinite {
        /// Which quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A quantity that must be strictly positive was not.
    NonPositive {
        /// Which quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            SimError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NonFinite {
            what: "ambient temperature",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("ambient temperature"));
        let e = SimError::NonPositive {
            what: "capacitance",
            value: 0.0,
        };
        assert!(e.to_string().contains("positive"));
    }
}
