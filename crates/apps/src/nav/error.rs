//! Typed errors for the request-serving path.
//!
//! The navigation server originally treated every degenerate input as a
//! programmer error and panicked. A multi-tenant serving tier cannot
//! afford that: one malformed request must not take down the process.
//! [`NavigationServer::try_serve`](super::NavigationServer::try_serve)
//! surfaces these conditions as values instead.

use std::fmt;

/// A request-serving failure.
#[derive(Debug, Clone, PartialEq)]
pub enum NavError {
    /// The road network has no nodes to route between.
    EmptyNetwork,
    /// No route exists between the drawn origin/destination pair.
    NoRoute {
        /// Origin node drawn for the request.
        origin: usize,
        /// Destination node drawn for the request.
        destination: usize,
    },
}

impl fmt::Display for NavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavError::EmptyNetwork => write!(f, "road network has no nodes"),
            NavError::NoRoute {
                origin,
                destination,
            } => write!(f, "no route from node {origin} to node {destination}"),
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
        assert!(NavError::NoRoute {
            origin: 3,
            destination: 9
        }
        .to_string()
        .contains("3 to node 9"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(NavError::EmptyNetwork);
        assert!(!e.to_string().is_empty());
    }
}
