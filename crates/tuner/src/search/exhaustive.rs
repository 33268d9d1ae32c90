//! Exhaustive enumeration — ground truth for small spaces.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::RngCore;

/// Enumerates every configuration exactly once, then stops.
#[derive(Debug, Clone, Default)]
pub struct Exhaustive {
    cursor: u128,
}

impl Exhaustive {
    /// Creates an exhaustive enumerator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SearchTechnique for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn propose(&mut self, space: &DesignSpace, _rng: &mut dyn RngCore) -> Option<Configuration> {
        if self.cursor >= space.size() {
            return None;
        }
        let config = space.config_at(self.cursor);
        self.cursor += 1;
        Some(config)
    }

    fn feedback(&mut self, _config: &Configuration, _cost: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_exact_optimum() {
        let report = tune(Box::new(Exhaustive::new()), 10_000, 0, quadratic_cost);
        let (config, cost) = best(&report);
        assert_eq!(cost, 0.0);
        assert_eq!(config.get_int("x"), Some(7));
        assert_eq!(config.get_int("y"), Some(3));
        assert_eq!(report.evaluations, 256, "16 x 16 cells, then stop");
        // the convergence metric: the optimum is cell 7 * 16 + 3
        assert_eq!(evaluations_to_reach(&report, 0.0), Some(116));
        assert_eq!(evaluations_to_reach(&report, -5.0), None);
    }

    #[test]
    fn stops_after_exhaustion() {
        let mut technique = Exhaustive::new();
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(0);
        let mut count = 0;
        while technique.propose(&space, &mut rng).is_some() {
            count += 1;
        }
        assert_eq!(count, 256);
        assert!(technique.propose(&space, &mut rng).is_none());
    }
}
