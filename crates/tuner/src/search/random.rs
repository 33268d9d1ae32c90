//! Uniform random search — the classic black-box baseline.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::RngCore;

/// Proposes uniformly random configurations forever.
#[derive(Debug, Clone, Default)]
pub struct RandomSearch {
    proposals: u64,
}

impl RandomSearch {
    /// Creates a random-search technique.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SearchTechnique for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        self.proposals += 1;
        Some(space.sample(rng))
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
    fn finds_decent_point_on_small_space() {
        let report = tune(Box::new(RandomSearch::new()), 200, 11, quadratic_cost);
        let (_, cost) = best(&report);
        assert!(
            cost <= 4.0,
            "200 samples over 256 cells should land near optimum"
        );
    }

    #[test]
    fn proposals_counted() {
        let mut technique = RandomSearch::new();
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            technique.propose(&space, &mut rng);
        }
        assert_eq!(technique.proposals, 5);
    }
}
