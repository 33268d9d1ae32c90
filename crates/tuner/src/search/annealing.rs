//! Simulated annealing.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Metropolis-accept simulated annealing with geometric cooling.
#[derive(Debug, Clone)]
pub struct Annealing {
    temperature: f64,
    cooling: f64,
    current: Option<(Configuration, f64)>,
    pending: Option<Configuration>,
    accept_draw: f64,
    scratch: Vec<Configuration>,
}

impl Annealing {
    /// Creates an annealer with initial temperature 10 and cooling 0.98.
    pub fn new() -> Self {
        Self::with_schedule(10.0, 0.98)
    }

    /// Creates an annealer with an explicit schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `temperature > 0` and `0 < cooling < 1`.
    pub(crate) fn with_schedule(temperature: f64, cooling: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(
            (0.0..1.0).contains(&cooling) && cooling > 0.0,
            "cooling must be in (0, 1)"
        );
        Annealing {
            temperature,
            cooling,
            current: None,
            pending: None,
            accept_draw: 0.5,
            scratch: Vec::new(),
        }
    }
}

impl Default for Annealing {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchTechnique for Annealing {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        // draw the acceptance coin now, while we own the rng
        self.accept_draw = rng.gen::<f64>();
        let next = match &self.current {
            None => space.sample(rng),
            Some((config, _)) => {
                // neighbour buffer reused across proposals
                space.neighbors_into(config, &mut self.scratch);
                match self.scratch.choose(rng) {
                    Some(n) => n.clone(),
                    None => space.sample(rng),
                }
            }
        };
        self.pending = Some(next.clone());
        Some(next)
    }

    fn feedback(&mut self, config: &Configuration, cost: f64) {
        if self.pending.as_ref() != Some(config) {
            return;
        }
        self.pending = None;
        let accept = match &self.current {
            None => true,
            Some((_, incumbent)) => {
                if cost <= *incumbent {
                    true
                } else {
                    let p = (-(cost - incumbent) / self.temperature).exp();
                    self.accept_draw < p
                }
            }
        };
        if accept {
            self.current = Some((config.clone(), cost));
        }
        self.temperature = (self.temperature * self.cooling).max(1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cools_and_converges_on_convex() {
        let annealer = Box::new(Annealing::with_schedule(20.0, 0.95));
        let (_, cost) = best(&tune(annealer, 400, 21, quadratic_cost));
        assert!(
            cost <= 2.0,
            "annealing should settle near the optimum, got {cost}"
        );
    }

    #[test]
    fn escapes_local_basin_sometimes() {
        // across seeds, annealing should hit the global basin at least once
        let mut hits = 0;
        for seed in 0..8 {
            let annealer = Box::new(Annealing::with_schedule(60.0, 0.995));
            let (_, cost) = best(&tune(annealer, 600, seed, multimodal_cost));
            if cost < 5.0 {
                hits += 1;
            }
        }
        assert!(hits >= 2, "global basin found in only {hits}/8 runs");
    }

    #[test]
    fn temperature_decreases() {
        let mut annealer = Annealing::new();
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(2);
        let t0 = annealer.temperature;
        for _ in 0..10 {
            let c = annealer.propose(&space, &mut rng).unwrap();
            annealer.feedback(&c, 1.0);
        }
        assert!(annealer.temperature < t0);
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn bad_schedule_rejected() {
        let _ = Annealing::with_schedule(1.0, 1.5);
    }
}
