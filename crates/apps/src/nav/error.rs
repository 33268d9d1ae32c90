//! Typed errors for the request-serving path.
//!
//! The planning path of [`NavigationServer`](super::NavigationServer)
//! reports degenerate inputs as values; `serve` turns them into its
//! documented panic.

use std::fmt;

/// A request-serving failure.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NavError {
    /// The road network has no nodes to route between.
    EmptyNetwork,
}

impl fmt::Display for NavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavError::EmptyNetwork => write!(f, "road network has no nodes"),
        }
    }
}

impl std::error::Error for NavError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(NavError::EmptyNetwork.to_string().contains("no nodes"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(NavError::EmptyNetwork);
        assert!(!e.to_string().is_empty());
    }
}
