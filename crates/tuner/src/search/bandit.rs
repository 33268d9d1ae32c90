//! Multi-armed-bandit meta-technique (OpenTuner style).
//!
//! OpenTuner's key idea — adopted here as the black-box ensemble baseline —
//! is to run several search techniques side by side and let a multi-armed
//! bandit allocate evaluations to whichever is currently producing
//! improvements. Arms are scored by UCB1 over a sliding reward window,
//! where the reward of a trial is 1 when it improved the global best.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::RngCore;
use std::collections::VecDeque;

struct Arm {
    technique: Box<dyn SearchTechnique>,
    rewards: VecDeque<f64>,
    pulls: u64,
    exhausted: bool,
}

impl Arm {
    fn window_mean(&self) -> f64 {
        if self.rewards.is_empty() {
            return 0.0;
        }
        self.rewards.iter().sum::<f64>() / self.rewards.len() as f64
    }
}

/// UCB1 bandit over an ensemble of techniques.
pub struct Bandit {
    arms: Vec<Arm>,
    window: usize,
    exploration: f64,
    total_pulls: u64,
    best: Option<f64>,
    last_arm: Option<usize>,
    pending: Option<Configuration>,
}

impl std::fmt::Debug for Bandit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bandit")
            .field("arms", &self.arm_names())
            .field("total_pulls", &self.total_pulls)
            .finish_non_exhaustive()
    }
}

impl Bandit {
    /// Creates a bandit over the given techniques with a 32-trial reward
    /// window and exploration constant √2.
    ///
    /// # Panics
    ///
    /// Panics if `techniques` is empty.
    pub(crate) fn new(techniques: Vec<Box<dyn SearchTechnique>>) -> Self {
        assert!(
            !techniques.is_empty(),
            "bandit needs at least one technique"
        );
        Bandit {
            arms: techniques
                .into_iter()
                .map(|technique| Arm {
                    technique,
                    rewards: VecDeque::new(),
                    pulls: 0,
                    exhausted: false,
                })
                .collect(),
            window: 32,
            exploration: std::f64::consts::SQRT_2,
            total_pulls: 0,
            best: None,
            last_arm: None,
            pending: None,
        }
    }

    /// The default ensemble: random, hill climbing, annealing, genetic.
    pub fn default_ensemble() -> Self {
        Bandit::new(vec![
            Box::new(super::random::RandomSearch::new()),
            Box::new(super::hillclimb::HillClimb::new()),
            Box::new(super::annealing::Annealing::new()),
            Box::new(super::genetic::Genetic::new()),
        ])
    }

    /// Names of the arms.
    pub(crate) fn arm_names(&self) -> Vec<&'static str> {
        self.arms.iter().map(|a| a.technique.name()).collect()
    }

    fn pick_arm(&self) -> Option<usize> {
        // any unexplored, non-exhausted arm first
        if let Some(i) = self.arms.iter().position(|a| a.pulls == 0 && !a.exhausted) {
            return Some(i);
        }
        let total = self.total_pulls.max(1) as f64;
        self.arms
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.exhausted)
            .map(|(i, a)| {
                let bonus = self.exploration * (total.ln() / a.pulls.max(1) as f64).sqrt();
                (i, a.window_mean() + bonus)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    }
}

impl SearchTechnique for Bandit {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        loop {
            let index = self.pick_arm()?;
            match self.arms[index].technique.propose(space, rng) {
                Some(config) => {
                    self.arms[index].pulls += 1;
                    self.total_pulls += 1;
                    self.last_arm = Some(index);
                    self.pending = Some(config.clone());
                    return Some(config);
                }
                None => {
                    self.arms[index].exhausted = true;
                }
            }
        }
    }

    fn feedback(&mut self, config: &Configuration, cost: f64) {
        let Some(index) = self.last_arm else {
            return;
        };
        if self.pending.as_ref() != Some(config) {
            // stale feedback (cache hit routed elsewhere): forward anyway
            self.arms[index].technique.feedback(config, cost);
            return;
        }
        self.pending = None;
        let improved = self.best.is_none_or(|b| cost < b);
        if improved {
            self.best = Some(cost);
        }
        let arm = &mut self.arms[index];
        arm.rewards.push_back(if improved { 1.0 } else { 0.0 });
        if arm.rewards.len() > self.window {
            arm.rewards.pop_front();
        }
        arm.technique.feedback(config, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ensemble_converges() {
        let ensemble = Box::new(Bandit::default_ensemble());
        let (_, cost) = best(&tune(ensemble, 300, 19, quadratic_cost));
        assert!(cost <= 1.0, "bandit ensemble should converge, got {cost}");
    }

    #[test]
    fn every_arm_gets_explored() {
        let mut bandit = Bandit::default_ensemble();
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let c = bandit.propose(&space, &mut rng).unwrap();
            bandit.feedback(&c, 1.0);
        }
        let pulls: Vec<u64> = bandit.arms.iter().map(|a| a.pulls).collect();
        assert!(pulls.iter().all(|&p| p > 0), "{pulls:?}");
    }

    #[test]
    fn exhausted_arms_are_skipped() {
        // an ensemble of one exhaustive arm over a tiny space: after
        // exhaustion, propose must return None instead of looping.
        let space = crate::space::DesignSpace::new(vec![crate::knob::Knob::int("x", 0, 1, 1)]);
        let mut bandit = Bandit::new(vec![Box::new(crate::search::exhaustive::Exhaustive::new())]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = 0;
        while let Some(c) = bandit.propose(&space, &mut rng) {
            bandit.feedback(&c, 1.0);
            seen += 1;
            assert!(seen <= 2, "looped past exhaustion");
        }
        assert_eq!(seen, 2);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ensemble_rejected() {
        let _ = Bandit::new(vec![]);
    }

    #[test]
    fn beats_or_matches_plain_random_on_multimodal() {
        let mut best_bandit = f64::INFINITY;
        let mut best_random = f64::INFINITY;
        for seed in 0..5 {
            let ensemble = Box::new(Bandit::default_ensemble());
            best_bandit = best_bandit.min(best(&tune(ensemble, 150, seed, multimodal_cost)).1);
            let random = Box::new(crate::search::random::RandomSearch::new());
            best_random = best_random.min(best(&tune(random, 150, seed, multimodal_cost)).1);
        }
        assert!(best_bandit <= best_random + 1.0);
    }
}
