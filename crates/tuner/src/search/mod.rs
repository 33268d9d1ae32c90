//! Search techniques over the design space.
//!
//! The paper contrasts *black-box* autotuning (no application knowledge,
//! long convergence) with the ANTAREX *grey-box* approach (§IV). This
//! module provides the black-box arsenal — the space covered by OpenTuner:
//! [`exhaustive`], [`random`], [hill climbing](hillclimb),
//! [simulated annealing](annealing), a [genetic algorithm](genetic), and a
//! [multi-armed-bandit meta-technique](bandit) that allocates trials to
//! whichever technique is currently paying off. Grey-box tuning is the
//! same machinery run on an annotation-shrunk space (see
//! [`DesignSpace::restrict`](crate::space::DesignSpace::restrict)) —
//! benchmark A1 measures the difference.

pub mod annealing;
pub mod bandit;
pub mod batch;
pub mod exhaustive;
pub mod genetic;
pub mod hillclimb;
pub mod random;

use crate::space::{Configuration, DesignSpace};
use rand::RngCore;

/// A sequential search technique: propose a configuration, receive its
/// measured cost (smaller is better), repeat.
pub trait SearchTechnique {
    /// Human-readable technique name.
    fn name(&self) -> &'static str;

    /// Proposes the next configuration to evaluate, or `None` when the
    /// technique has exhausted its options.
    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration>;

    /// Reports the measured cost of a previously proposed configuration.
    fn feedback(&mut self, config: &Configuration, cost: f64);
}

/// One evaluated trial.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Trial {
    /// Evaluated configuration.
    pub config: Configuration,
    /// Measured cost (smaller is better).
    pub cost: f64,
    /// 1-based evaluation index at which this trial ran.
    pub evaluation: usize,
}

/// Drives a [`SearchTechnique`] against an evaluation function, caching
/// repeated proposals and tracking the incumbent best.
pub struct Tuner {
    space: DesignSpace,
    technique: Box<dyn SearchTechnique>,
    history: Vec<Trial>,
    best: Option<(Configuration, f64)>,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("technique", &self.technique.name())
            .field("evaluations", &self.history.len())
            .field("best", &self.best)
            .finish_non_exhaustive()
    }
}

impl Tuner {
    /// Creates a tuner for `space` using `technique`.
    pub fn new(space: DesignSpace, technique: Box<dyn SearchTechnique>) -> Self {
        Tuner {
            space,
            technique,
            history: Vec::new(),
            best: None,
        }
    }

    /// Runs up to `budget` evaluations of `eval`, returning the best
    /// configuration found and its cost.
    ///
    /// Proposals already evaluated are answered from cache without
    /// consuming budget (but count against a proposal cap of `10 × budget`
    /// to guarantee termination on converged techniques).
    pub fn run(
        &mut self,
        budget: usize,
        rng: &mut impl RngCore,
        mut eval: impl FnMut(&Configuration) -> f64,
    ) -> Option<(Configuration, f64)> {
        let mut evaluations = 0;
        let mut proposals = 0;
        let proposal_cap = budget.saturating_mul(10).max(budget);
        while evaluations < budget && proposals < proposal_cap {
            let Some(config) = self.technique.propose(&self.space, rng) else {
                break;
            };
            proposals += 1;
            if let Some(prior) = self.history.iter().find(|t| t.config == config) {
                let cost = prior.cost;
                self.technique.feedback(&config, cost);
                continue;
            }
            let cost = eval(&config);
            evaluations += 1;
            self.history.push(Trial {
                config: config.clone(),
                cost,
                evaluation: evaluations,
            });
            if self.best.as_ref().is_none_or(|(_, b)| cost < *b) {
                self.best = Some((config.clone(), cost));
            }
            self.technique.feedback(&config, cost);
        }
        self.best.clone()
    }

    /// Number of evaluations needed to first reach a cost within
    /// `tolerance` (relative) of `target`, if ever (convergence metric for
    /// benchmark A1).
    pub fn evaluations_to_reach(&self, target: f64, tolerance: f64) -> Option<usize> {
        let threshold = target * (1.0 + tolerance);
        let mut best = f64::INFINITY;
        for trial in &self.history {
            best = best.min(trial.cost);
            if best <= threshold {
                return Some(trial.evaluation);
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::knob::Knob;
    use crate::space::{Configuration, DesignSpace};

    /// A 2-D integer test space with a known optimum at (7, 3).
    pub fn quadratic_space() -> DesignSpace {
        DesignSpace::new(vec![Knob::int("x", 0, 15, 1), Knob::int("y", 0, 15, 1)])
    }

    /// Convex bowl with minimum 0 at x=7, y=3.
    pub fn quadratic_cost(config: &Configuration) -> f64 {
        let x = config.get_int("x").unwrap() as f64;
        let y = config.get_int("y").unwrap() as f64;
        (x - 7.0).powi(2) + (y - 3.0).powi(2)
    }

    /// Deceptive multi-modal cost: global optimum at x=13, y=13, with a
    /// local basin near the origin.
    pub fn multimodal_cost(config: &Configuration) -> f64 {
        let x = config.get_int("x").unwrap() as f64;
        let y = config.get_int("y").unwrap() as f64;
        let local = (x - 2.0).powi(2) + (y - 2.0).powi(2) + 5.0;
        let global = (x - 13.0).powi(2) + (y - 13.0).powi(2);
        local.min(global)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tuner_tracks_best_and_history() {
        let mut tuner = Tuner::new(quadratic_space(), Box::new(random::RandomSearch::new()));
        let mut rng = StdRng::seed_from_u64(1);
        let best = tuner.run(64, &mut rng, quadratic_cost).unwrap();
        assert_eq!(tuner.history.len(), 64);
        // incumbent matches history minimum
        let min = tuner
            .history
            .iter()
            .map(|t| t.cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.1, min);
    }

    #[test]
    fn repeated_proposals_do_not_burn_budget() {
        // A degenerate one-point space: random search proposes the same
        // configuration forever; only one evaluation must happen.
        let space = DesignSpace::new(vec![crate::knob::Knob::int("x", 3, 3, 1)]);
        let mut tuner = Tuner::new(space, Box::new(random::RandomSearch::new()));
        let mut rng = StdRng::seed_from_u64(2);
        let mut evals = 0;
        tuner.run(10, &mut rng, |_| {
            evals += 1;
            1.0
        });
        assert_eq!(evals, 1);
    }

    #[test]
    fn evaluations_to_reach_convergence_metric() {
        let mut tuner = Tuner::new(quadratic_space(), Box::new(exhaustive::Exhaustive::new()));
        let mut rng = StdRng::seed_from_u64(3);
        tuner.run(256, &mut rng, quadratic_cost);
        let hit = tuner.evaluations_to_reach(0.0, 0.05).unwrap();
        assert!(hit <= 256);
        assert!(tuner.evaluations_to_reach(-5.0, 0.0).is_none());
    }
}
