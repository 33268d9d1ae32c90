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
//!
//! A technique only proposes and listens: [`crate::dse::explore`]
//! drives it one proposal at a time, [`crate::dse::explore_parallel`]
//! in seeded rounds evaluated across threads. Either way the explorer
//! answers repeated proposals from the knowledge base, tracks the
//! incumbent and feeds every cost back in proposal order.
//!
//! ```
//! use antarex_tuner::dse::explore;
//! use antarex_tuner::goal::Objective;
//! use antarex_tuner::knob::Knob;
//! use antarex_tuner::search::hillclimb::HillClimb;
//! use antarex_tuner::space::DesignSpace;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let space = DesignSpace::new(vec![Knob::int("x", 0, 15, 1)]);
//! let mut rng = StdRng::seed_from_u64(3);
//! let report = explore(
//!     &space,
//!     Box::new(HillClimb::new()),
//!     &Objective::minimize("cost"),
//!     40,
//!     &mut rng,
//!     |cfg| [("cost".to_string(), (cfg.get_int("x").unwrap() as f64 - 9.0).abs())].into(),
//! );
//! assert_eq!(report.best.unwrap().get_int("x"), Some(9));
//! ```

pub mod annealing;
pub mod bandit;
pub mod exhaustive;
pub mod genetic;
pub mod hillclimb;
pub mod random;

use crate::space::{Configuration, DesignSpace};
use rand::RngCore;

/// A search technique: propose a configuration, receive its measured
/// cost (smaller is better), repeat. Within an
/// [`explore_parallel`](crate::dse::explore_parallel) round every
/// proposal is made before the first cost comes back.
pub trait SearchTechnique {
    /// Human-readable technique name.
    fn name(&self) -> &'static str;

    /// Proposes the next configuration to evaluate, or `None` when the
    /// technique has exhausted its options.
    fn propose(&mut self, space: &DesignSpace, rng: &mut dyn RngCore) -> Option<Configuration>;

    /// Reports the measured cost of a previously proposed configuration.
    fn feedback(&mut self, config: &Configuration, cost: f64);
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::SearchTechnique;
    use crate::dse::{explore, DseReport};
    use crate::goal::Objective;
    use crate::knob::Knob;
    use crate::space::{Configuration, DesignSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Explores [`quadratic_space`] with `technique` for up to `budget`
    /// evaluations of `cost`, drawing from a generator seeded by `seed`.
    pub fn tune(
        technique: Box<dyn SearchTechnique>,
        budget: usize,
        seed: u64,
        cost: fn(&Configuration) -> f64,
    ) -> DseReport {
        let mut rng = StdRng::seed_from_u64(seed);
        explore(
            &quadratic_space(),
            technique,
            &Objective::minimize("cost"),
            budget,
            &mut rng,
            |config| [("cost".to_string(), cost(config))].into(),
        )
    }

    /// The incumbent of a [`tune`] run and its cost.
    pub fn best(report: &DseReport) -> (Configuration, f64) {
        let config = report.best.clone().expect("something was evaluated");
        let cost = report
            .knowledge
            .find(&config)
            .and_then(|p| p.metric("cost"));
        (config, cost.expect("every point has a cost"))
    }

    /// The 1-based evaluation at which a [`tune`] run first reached a
    /// cost of `target` or below.
    pub fn evaluations_to_reach(report: &DseReport, target: f64) -> Option<usize> {
        let points = report.knowledge.points();
        let hit = points
            .iter()
            .position(|p| p.metric("cost").is_some_and(|c| c <= target));
        hit.map(|index| index + 1)
    }
}
