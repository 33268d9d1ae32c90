//! A steady-state genetic algorithm.

use super::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::{Rng, RngCore};

/// Genetic search: tournament selection, uniform crossover, per-knob
/// mutation. The population is seeded randomly and evolved one evaluated
/// child at a time (steady state), replacing the current worst.
#[derive(Debug, Clone)]
pub struct Genetic {
    population_size: usize,
    mutation_rate: f64,
    population: Vec<(Configuration, f64)>,
    pending: Option<Configuration>,
}

impl Genetic {
    /// Creates a GA with population 16 and mutation rate 0.15.
    pub fn new() -> Self {
        Self::with_params(16, 0.15)
    }

    /// Creates a GA with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `population_size < 2` or `mutation_rate` not in `[0, 1]`.
    pub(crate) fn with_params(population_size: usize, mutation_rate: f64) -> Self {
        assert!(population_size >= 2, "population must hold at least 2");
        assert!(
            (0.0..=1.0).contains(&mutation_rate),
            "mutation rate must be in [0, 1]"
        );
        Genetic {
            population_size,
            mutation_rate,
            population: Vec::new(),
            pending: None,
        }
    }

    fn tournament<'a>(&'a self, rng: &mut dyn RngCore) -> &'a (Configuration, f64) {
        let a = &self.population[rng.gen_range(0..self.population.len())];
        let b = &self.population[rng.gen_range(0..self.population.len())];
        if a.1 <= b.1 {
            a
        } else {
            b
        }
    }

    fn crossover(
        &self,
        space: &DesignSpace,
        a: &Configuration,
        b: &Configuration,
        rng: &mut dyn RngCore,
    ) -> Configuration {
        space
            .knobs()
            .iter()
            .map(|knob| {
                let parent = if rng.gen_bool(0.5) { a } else { b };
                let value = parent
                    .get(knob.name())
                    .cloned()
                    .unwrap_or_else(|| knob.value_at(0));
                (knob.name().to_string(), value)
            })
            .collect()
    }

    fn mutate(&self, space: &DesignSpace, config: &mut Configuration, rng: &mut dyn RngCore) {
        for knob in space.knobs() {
            if rng.gen::<f64>() < self.mutation_rate {
                let index = rng.gen_range(0..knob.cardinality());
                config.set(knob.name(), knob.value_at(index));
            }
        }
    }
}

impl Default for Genetic {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchTechnique for Genetic {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        let next = if self.population.len() < self.population_size {
            space.sample(rng)
        } else {
            let a = self.tournament(rng).0.clone();
            let b = self.tournament(rng).0.clone();
            let mut child = self.crossover(space, &a, &b, rng);
            self.mutate(space, &mut child, rng);
            child
        };
        self.pending = Some(next.clone());
        Some(next)
    }

    fn feedback(&mut self, config: &Configuration, cost: f64) {
        if self.pending.as_ref() != Some(config) {
            return;
        }
        self.pending = None;
        if self.population.len() < self.population_size {
            self.population.push((config.clone(), cost));
            return;
        }
        // steady state: replace the worst if the child is no worse
        let (worst_idx, worst_cost) = self
            .population
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, p)| (i, p.1))
            .expect("population non-empty");
        if cost <= worst_cost {
            self.population[worst_idx] = (config.clone(), cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;
    use crate::search::Tuner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn evolves_toward_optimum() {
        let mut tuner = Tuner::new(quadratic_space(), Box::new(Genetic::new()));
        let mut rng = StdRng::seed_from_u64(17);
        let (_, cost) = tuner.run(300, &mut rng, quadratic_cost).unwrap();
        assert!(cost <= 2.0, "GA should approach the optimum, got {cost}");
    }

    #[test]
    fn handles_multimodal_surfaces() {
        let mut hits = 0;
        for seed in 0..6 {
            let mut tuner = Tuner::new(quadratic_space(), Box::new(Genetic::new()));
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, cost) = tuner.run(300, &mut rng, multimodal_cost).unwrap();
            if cost < 5.0 {
                hits += 1;
            }
        }
        assert!(hits >= 3, "global basin found in only {hits}/6 runs");
    }

    #[test]
    fn population_fills_before_breeding() {
        let mut ga = Genetic::with_params(4, 0.1);
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..4 {
            let c = ga.propose(&space, &mut rng).unwrap();
            ga.feedback(&c, 1.0);
        }
        assert_eq!(ga.population.len(), 4);
        // further feedback keeps size constant
        let c = ga.propose(&space, &mut rng).unwrap();
        ga.feedback(&c, 0.5);
        assert_eq!(ga.population.len(), 4);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let _ = Genetic::with_params(1, 0.1);
    }
}
