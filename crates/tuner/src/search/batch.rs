//! Batch-capable search techniques for parallel DSE.
//!
//! A [`BatchTechnique`] proposes a whole *round* of configurations at
//! once; the explorer evaluates the round across worker threads and
//! feeds every result back in proposal order. Each round draws its
//! randomness from a fresh `StdRng` seeded by the explorer's
//! deterministic seed-split, so the proposal stream is a pure function
//! of `(base seed, round index)` — never of worker scheduling. That is
//! what lets [`crate::dse::explore_parallel`] promise a byte-identical
//! report at any worker count.

use crate::space::{Configuration, DesignSpace};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A search technique that proposes configurations a round at a time.
pub trait BatchTechnique {
    /// Human-readable technique name.
    fn name(&self) -> &'static str;

    /// Proposes the next round of at most `limit` configurations.
    /// `round_seed` is the explorer's deterministic per-round seed; all
    /// randomness for the round must derive from it. An empty round
    /// means the technique is exhausted.
    fn propose_batch(
        &mut self,
        space: &DesignSpace,
        round_seed: u64,
        limit: usize,
    ) -> Vec<Configuration>;

    /// Reports measured costs (smaller is better) for the round, in
    /// proposal order. Entries whose evaluation produced no cost for
    /// the steering metric are omitted.
    fn feedback_batch(&mut self, results: &[(Configuration, f64)]);
}

/// Enumerates the space in index order, `limit` configurations per
/// round. The batched counterpart of
/// [`Exhaustive`](crate::search::exhaustive::Exhaustive).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveBatch {
    cursor: u128,
}

impl ExhaustiveBatch {
    /// Creates a batched exhaustive enumerator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BatchTechnique for ExhaustiveBatch {
    fn name(&self) -> &'static str {
        "exhaustive-batch"
    }

    fn propose_batch(
        &mut self,
        space: &DesignSpace,
        _round_seed: u64,
        limit: usize,
    ) -> Vec<Configuration> {
        let mut out = Vec::new();
        while self.cursor < space.size() && out.len() < limit {
            out.push(space.config_at(self.cursor));
            self.cursor += 1;
        }
        out
    }

    fn feedback_batch(&mut self, _results: &[(Configuration, f64)]) {}
}

/// Uniform random sampling, `batch_size` draws per round.
#[derive(Debug, Clone)]
pub struct RandomBatch {
    batch_size: usize,
}

impl RandomBatch {
    /// Creates a random sampler proposing `batch_size` configurations
    /// per round.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        RandomBatch { batch_size }
    }
}

impl BatchTechnique for RandomBatch {
    fn name(&self) -> &'static str {
        "random-batch"
    }

    fn propose_batch(
        &mut self,
        space: &DesignSpace,
        round_seed: u64,
        limit: usize,
    ) -> Vec<Configuration> {
        let mut rng = StdRng::seed_from_u64(round_seed);
        (0..self.batch_size.min(limit))
            .map(|_| space.sample(&mut rng))
            .collect()
    }

    fn feedback_batch(&mut self, _results: &[(Configuration, f64)]) {}
}

/// A generational genetic algorithm: every round breeds one full
/// generation (tournament selection, uniform crossover, per-knob
/// mutation), and survivor selection keeps the best `population_size`
/// of parents and children. Generations are what make a GA batchable —
/// the children of one generation are independent of each other, so
/// they can be evaluated concurrently.
#[derive(Debug, Clone)]
pub struct GeneticBatch {
    population_size: usize,
    mutation_rate: f64,
    population: Vec<(Configuration, f64)>,
}

impl GeneticBatch {
    /// Creates a generational GA with population 16 and mutation rate
    /// 0.15.
    pub(crate) fn new() -> Self {
        Self::with_params(16, 0.15)
    }

    /// Creates a generational GA with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `population_size < 2` or `mutation_rate` not in `[0, 1]`.
    pub fn with_params(population_size: usize, mutation_rate: f64) -> Self {
        assert!(population_size >= 2, "population must hold at least 2");
        assert!(
            (0.0..=1.0).contains(&mutation_rate),
            "mutation rate must be in [0, 1]"
        );
        GeneticBatch {
            population_size,
            mutation_rate,
            population: Vec::new(),
        }
    }

    fn tournament<'a>(&'a self, rng: &mut dyn RngCore) -> &'a Configuration {
        let a = &self.population[rng.gen_range(0..self.population.len())];
        let b = &self.population[rng.gen_range(0..self.population.len())];
        if a.1 <= b.1 {
            &a.0
        } else {
            &b.0
        }
    }

    fn breed(&self, space: &DesignSpace, rng: &mut dyn RngCore) -> Configuration {
        let a = self.tournament(rng).clone();
        let b = self.tournament(rng).clone();
        let mut child = Configuration::with_capacity(space.knobs().len());
        for (knob, id) in space.knobs().iter().zip(space.knob_ids()) {
            let parent = if rng.gen_bool(0.5) { &a } else { &b };
            let value = parent
                .get_id(*id)
                .cloned()
                .unwrap_or_else(|| knob.value_at(0));
            child.set_id(*id, value);
        }
        for (knob, id) in space.knobs().iter().zip(space.knob_ids()) {
            if rng.gen::<f64>() < self.mutation_rate {
                let index = rng.gen_range(0..knob.cardinality());
                child.set_id(*id, knob.value_at(index));
            }
        }
        child
    }
}

impl Default for GeneticBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchTechnique for GeneticBatch {
    fn name(&self) -> &'static str {
        "genetic-batch"
    }

    fn propose_batch(
        &mut self,
        space: &DesignSpace,
        round_seed: u64,
        limit: usize,
    ) -> Vec<Configuration> {
        let mut rng = StdRng::seed_from_u64(round_seed);
        let generation = self.population_size.min(limit);
        if self.population.is_empty() {
            (0..generation).map(|_| space.sample(&mut rng)).collect()
        } else {
            (0..generation)
                .map(|_| self.breed(space, &mut rng))
                .collect()
        }
    }

    fn feedback_batch(&mut self, results: &[(Configuration, f64)]) {
        self.population
            .extend(results.iter().map(|(c, cost)| (c.clone(), *cost)));
        // survivor selection: best `population_size`, parents winning
        // ties by the stable sort (keeps selection deterministic)
        self.population.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.population.truncate(self.population_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_support::*;

    #[test]
    fn exhaustive_batch_covers_the_space_once() {
        let space = quadratic_space();
        let mut technique = ExhaustiveBatch::new();
        let mut seen = Vec::new();
        loop {
            let round = technique.propose_batch(&space, 0, 60);
            if round.is_empty() {
                break;
            }
            seen.extend(round);
        }
        assert_eq!(seen.len(), 256, "16 x 16 cells exactly once");
        assert_eq!(seen[0], space.config_at(0));
        assert!(technique.propose_batch(&space, 0, 60).is_empty());
    }

    #[test]
    fn random_batch_is_a_pure_function_of_the_round_seed() {
        let space = quadratic_space();
        let mut a = RandomBatch::new(8);
        let mut b = RandomBatch::new(8);
        assert_eq!(
            a.propose_batch(&space, 42, 100),
            b.propose_batch(&space, 42, 100)
        );
        assert_ne!(
            a.propose_batch(&space, 1, 100),
            b.propose_batch(&space, 2, 100),
            "different round seeds should diverge on a 256-point space"
        );
    }

    #[test]
    fn genetic_batch_breeds_after_the_first_generation() {
        let space = quadratic_space();
        let mut ga = GeneticBatch::with_params(8, 0.2);
        let round = ga.propose_batch(&space, 7, 100);
        assert_eq!(round.len(), 8);
        let results: Vec<(Configuration, f64)> = round
            .into_iter()
            .map(|c| (c.clone(), quadratic_cost(&c)))
            .collect();
        ga.feedback_batch(&results);
        assert_eq!(ga.population.len(), 8);
        let next = ga.propose_batch(&space, 8, 100);
        assert_eq!(next.len(), 8);
        // survivor selection keeps the population bounded
        let results: Vec<(Configuration, f64)> = next
            .into_iter()
            .map(|c| (c.clone(), quadratic_cost(&c)))
            .collect();
        ga.feedback_batch(&results);
        assert_eq!(ga.population.len(), 8);
    }

    #[test]
    fn genetic_batch_improves_across_generations() {
        let space = quadratic_space();
        let mut ga = GeneticBatch::with_params(12, 0.15);
        let mut best = f64::INFINITY;
        for round in 0..20u64 {
            let generation = ga.propose_batch(&space, round, 100);
            let results: Vec<(Configuration, f64)> = generation
                .into_iter()
                .map(|c| (c.clone(), quadratic_cost(&c)))
                .collect();
            for (_, cost) in &results {
                best = best.min(*cost);
            }
            ga.feedback_batch(&results);
        }
        assert!(best <= 2.0, "generational GA should approach 0, got {best}");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = RandomBatch::new(0);
    }
}
