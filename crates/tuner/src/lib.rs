//! # antarex-tuner — application autotuning framework
//!
//! Implements the autotuning work package of ANTAREX (Silvano et al., DATE
//! 2016, §IV): a *grey-box* application autotuner that
//!
//! * models software knobs (application parameters, code-transformation
//!   factors, code variants) as a [design space](space) shrunk by
//!   code [annotations](space::DesignSpace::restrict) — "it can rely on
//!   code annotations to shrink the search space";
//! * explores the space with pluggable [search techniques](search)
//!   (exhaustive, random, hill climbing, simulated annealing, genetic, and
//!   an OpenTuner-style multi-armed-bandit meta-technique);
//! * builds a design-time [knowledge base](point::KnowledgeBase) of
//!   operating points via [DSE](dse);
//! * manages the application at runtime — the mARGOt-style
//!   [`manager::AppManager`] filters operating points by SLA
//!   [goals](goal) and picks the best, and learns what it measures into
//!   its own overlay, keeping the knowledge fresh "according to the most
//!   recent operating conditions".
//!
//! # Examples
//!
//! ```
//! use antarex_tuner::dse::explore;
//! use antarex_tuner::goal::Objective;
//! use antarex_tuner::knob::Knob;
//! use antarex_tuner::space::DesignSpace;
//! use antarex_tuner::search::hillclimb::HillClimb;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let space = DesignSpace::new(vec![
//!     Knob::int("unroll", 1, 16, 1),
//!     Knob::choice("variant", ["scalar", "blocked"]),
//! ]);
//! let mut rng = StdRng::seed_from_u64(7);
//! let report = explore(
//!     &space,
//!     Box::new(HillClimb::new()),
//!     &Objective::minimize("cost"),
//!     200,
//!     &mut rng,
//!     |cfg| {
//!         // pretend cost surface: bigger unroll is better up to 8
//!         let u = cfg.get_int("unroll").unwrap() as f64;
//!         [("cost".to_string(), (u - 8.0).abs())].into()
//!     },
//! );
//! assert_eq!(report.best.unwrap().get_int("unroll"), Some(8));
//! ```

pub mod dse;
pub mod features;
pub mod goal;
pub mod intern;
pub mod knob;
pub mod manager;
pub(crate) mod point;
pub mod safemode;
pub mod search;
pub mod space;

pub use knob::KnobValue;
pub use manager::AppManager;
pub use point::{KnowledgeBase, OperatingPoint};
pub use space::Configuration;
