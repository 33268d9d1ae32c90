//! Genetic algorithms: the steady-state [`Genetic`] and the
//! generational [`GeneticBatch`] that parallel DSE rounds drive.

use super::SearchTechnique;
use crate::dse::Rounds;
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
        check_params(population_size, mutation_rate);
        Genetic {
            population_size,
            mutation_rate,
            population: Vec::new(),
            pending: None,
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
            breed(&self.population, self.mutation_rate, space, rng)
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

/// A generational genetic algorithm: a round of proposals is one
/// generation — random until the first costs come back, then bred from
/// the population — and survivor selection keeps the best
/// `population_size` of parents and children, parents and earlier
/// children winning ties. Generations are what make a GA batchable: the
/// children of one generation are independent of each other, so they
/// can be evaluated concurrently. Drive it in its
/// [`rounds`](GeneticBatch::rounds), one generation each.
#[derive(Debug, Clone)]
pub struct GeneticBatch {
    population_size: usize,
    mutation_rate: f64,
    population: Vec<(Configuration, f64)>,
}

impl GeneticBatch {
    /// Creates a generational GA with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `population_size < 2` or `mutation_rate` not in `[0, 1]`.
    pub fn with_params(population_size: usize, mutation_rate: f64) -> Self {
        check_params(population_size, mutation_rate);
        GeneticBatch {
            population_size,
            mutation_rate,
            population: Vec::new(),
        }
    }

    /// The [`Rounds`] to explore with this GA: one generation —
    /// `population_size` proposals — per round. Any other round size
    /// silently runs a different algorithm.
    pub fn rounds(&self, seed: u64, workers: usize) -> Rounds {
        Rounds {
            size: self.population_size,
            seed,
            workers,
        }
    }
}

impl SearchTechnique for GeneticBatch {
    fn name(&self) -> &'static str {
        "genetic-batch"
    }

    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration> {
        Some(if self.population.is_empty() {
            space.sample(rng)
        } else {
            breed(&self.population, self.mutation_rate, space, rng)
        })
    }

    fn feedback(&mut self, config: &Configuration, cost: f64) {
        // the stable sort keeps the population ordered by (cost, arrival),
        // so truncating after every child keeps exactly the survivors
        // one sort per generation would
        self.population.push((config.clone(), cost));
        self.population.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.population.truncate(self.population_size);
    }
}

fn check_params(population_size: usize, mutation_rate: f64) {
    assert!(population_size >= 2, "population must hold at least 2");
    assert!(
        (0.0..=1.0).contains(&mutation_rate),
        "mutation rate must be in [0, 1]"
    );
}

/// One child of `population`: two binary tournaments pick the parents,
/// uniform crossover mixes them knob by knob, and each knob then
/// mutates to a uniformly drawn value with probability `mutation_rate`.
fn breed(
    population: &[(Configuration, f64)],
    mutation_rate: f64,
    space: &DesignSpace,
    rng: &mut dyn RngCore,
) -> Configuration {
    let tournament = |rng: &mut dyn RngCore| {
        let a = &population[rng.gen_range(0..population.len())];
        let b = &population[rng.gen_range(0..population.len())];
        if a.1 <= b.1 {
            &a.0
        } else {
            &b.0
        }
    };
    let a = tournament(rng);
    let b = tournament(rng);
    let mut child = Configuration::with_capacity(space.knobs().len());
    for (knob, id) in space.knobs().iter().zip(space.knob_ids()) {
        let parent = if rng.gen_bool(0.5) { a } else { b };
        let value = parent
            .get_id(*id)
            .cloned()
            .unwrap_or_else(|| knob.value_at(0));
        child.set_id(*id, value);
    }
    for (knob, id) in space.knobs().iter().zip(space.knob_ids()) {
        if rng.gen::<f64>() < mutation_rate {
            child.set_id(*id, knob.value_at(rng.gen_range(0..knob.cardinality())));
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn evolves_toward_optimum() {
        let (_, cost) = best(&tune(Box::new(Genetic::new()), 300, 17, quadratic_cost));
        assert!(cost <= 2.0, "GA should approach the optimum, got {cost}");
    }

    #[test]
    fn handles_multimodal_surfaces() {
        let mut hits = 0;
        for seed in 0..6 {
            let (_, cost) = best(&tune(Box::new(Genetic::new()), 300, seed, multimodal_cost));
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

    /// Proposes one generation of `ga`, feeds back its quadratic costs
    /// in proposal order and returns the best of them.
    fn generation(ga: &mut GeneticBatch, seed: u64) -> f64 {
        let space = quadratic_space();
        let mut rng = StdRng::seed_from_u64(seed);
        let children: Vec<Configuration> = (0..ga.population_size)
            .map(|_| ga.propose(&space, &mut rng).unwrap())
            .collect();
        let mut best = f64::INFINITY;
        for child in &children {
            let cost = quadratic_cost(child);
            best = best.min(cost);
            ga.feedback(child, cost);
        }
        best
    }

    #[test]
    fn genetic_batch_breeds_after_the_first_generation() {
        let mut ga = GeneticBatch::with_params(8, 0.2);
        generation(&mut ga, 7);
        assert_eq!(ga.population.len(), 8);
        generation(&mut ga, 8);
        // survivor selection keeps the population bounded and sorted
        assert_eq!(ga.population.len(), 8);
        assert!(ga.population.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn genetic_batch_improves_across_generations() {
        let mut ga = GeneticBatch::with_params(12, 0.15);
        let best = (0..20u64)
            .map(|round| generation(&mut ga, round))
            .fold(f64::INFINITY, f64::min);
        assert!(best <= 2.0, "generational GA should approach 0, got {best}");
    }
}
