//! Greedy hill climbing with random restarts.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::seq::SliceRandom;
use rand::RngCore;

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Need a fresh random starting point.
    Restart,
    /// Waiting for the cost of the starting point.
    AwaitStart(Configuration),
    /// Exploring the neighbour queue of the current incumbent.
    Exploring,
}

/// First-improvement hill climbing: evaluate neighbours of the incumbent
/// in random order; move to the first that improves; restart from a random
/// point when no neighbour does.
#[derive(Debug, Clone)]
pub struct HillClimb {
    phase: Phase,
    current: Option<(Configuration, f64)>,
    queue: Vec<Configuration>,
    pending: Option<Configuration>,
    restarts: u64,
}

impl HillClimb {
    /// Creates a hill climber.
    pub fn new() -> Self {
        HillClimb {
            phase: Phase::Restart,
            current: None,
            queue: Vec::new(),
            pending: None,
            restarts: 0,
        }
    }

    fn refill_queue(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) {
        let (config, _) = self.current.as_ref().expect("incumbent set");
        // reuse the queue's allocations across refills
        space.neighbors_into(config, &mut self.queue);
        self.queue.shuffle(&mut CoreRng(rng));
    }
}

impl Default for HillClimb {
    fn default() -> Self {
        Self::new()
    }
}

/// Adapter: `&mut dyn RngCore` itself implements `RngCore`, but
/// `SliceRandom::shuffle` needs a sized `Rng`; this wrapper provides it.
struct CoreRng<'a>(&'a mut dyn RngCore);

impl RngCore for CoreRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

impl SearchTechnique for HillClimb {
    fn name(&self) -> &'static str {
        "hill-climb"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        match &self.phase {
            Phase::Restart => {
                let start = space.sample(&mut CoreRng(rng));
                self.phase = Phase::AwaitStart(start.clone());
                self.pending = Some(start.clone());
                Some(start)
            }
            Phase::AwaitStart(start) => {
                // feedback not yet received (cached duplicate): repropose
                Some(start.clone())
            }
            Phase::Exploring => {
                if self.queue.is_empty() {
                    self.refill_queue(space, rng);
                }
                match self.queue.pop() {
                    Some(next) => {
                        self.pending = Some(next.clone());
                        Some(next)
                    }
                    None => {
                        // isolated point: restart
                        self.restarts += 1;
                        self.phase = Phase::Restart;
                        self.propose(space, rng)
                    }
                }
            }
        }
    }

    fn feedback(&mut self, config: &Configuration, cost: f64) {
        if self.pending.as_ref() != Some(config) {
            return;
        }
        self.pending = None;
        match &self.phase {
            Phase::AwaitStart(_) => {
                self.current = Some((config.clone(), cost));
                self.queue.clear();
                self.phase = Phase::Exploring;
            }
            Phase::Exploring => {
                let improved = self
                    .current
                    .as_ref()
                    .is_none_or(|(_, incumbent)| cost < *incumbent);
                if improved {
                    self.current = Some((config.clone(), cost));
                    self.queue.clear(); // re-derive neighbours of new incumbent
                } else if self.queue.is_empty() {
                    // local optimum exhausted
                    self.restarts += 1;
                    self.phase = Phase::Restart;
                }
            }
            Phase::Restart => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;

    #[test]
    fn descends_convex_bowl_to_optimum() {
        let (config, cost) = best(&tune(Box::new(HillClimb::new()), 200, 5, quadratic_cost));
        assert_eq!(cost, 0.0, "convex surface must reach the optimum");
        assert_eq!(config.get_int("x"), Some(7));
    }

    #[test]
    fn restarts_escape_local_optimum() {
        let (_, cost) = best(&tune(Box::new(HillClimb::new()), 400, 9, multimodal_cost));
        assert_eq!(
            cost, 0.0,
            "restarts should eventually find the global basin"
        );
    }

    #[test]
    fn converges_faster_than_random_on_convex() {
        let hill = tune(Box::new(HillClimb::new()), 100, 13, quadratic_cost);
        let random = Box::new(crate::search::random::RandomSearch::new());
        let random = tune(random, 100, 13, quadratic_cost);
        let hill_hit = evaluations_to_reach(&hill, 0.0);
        let rand_hit = evaluations_to_reach(&random, 0.0);
        match (hill_hit, rand_hit) {
            (Some(h), Some(r)) => assert!(h <= r, "hill {h} vs random {r}"),
            (Some(_), None) => {}
            other => panic!("hill climbing failed to converge: {other:?}"),
        }
    }
}
