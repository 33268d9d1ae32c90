//! The decision vocabulary of the collect-analyse-decide-act loop.
//!
//! Paper §II: "The application monitoring and autotuning will be supported
//! by a runtime layer implementing an application level
//! collect-analyse-decide-act loop." The loop itself lives where its
//! stages do — `antarex_tuner::AppManager::adapt` collects, analyses,
//! decides and acts in one round, and hands back the configuration it
//! switched to without formatting it; this module is the [`Decision`]
//! such a round is reported as, the configuration rendered as its label.

use std::fmt;

/// Outcome of one control-loop round.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current configuration.
    Stay,
    /// Switch to a new configuration, identified by an opaque label.
    Switch(String),
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Stay => write!(f, "stay"),
            Decision::Switch(to) => write!(f, "switch -> {to}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_display() {
        assert_eq!(Decision::Stay.to_string(), "stay");
        assert_eq!(Decision::Switch("p2".into()).to_string(), "switch -> p2");
    }
}
