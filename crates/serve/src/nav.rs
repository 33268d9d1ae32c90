//! Navigation-backed design-point evaluation.
//!
//! Wires the §VII-b navigation use case through the service: a probe
//! for a (quality knob, workload features) pair runs the real
//! alternative-route planner on the shared road network and reports
//! latency, route quality, and a power proxy. The probe derives its
//! origin/destination draws from a seed mixed out of the design key
//! itself, making it a pure function of (configuration, features) —
//! the purity the pool and the cache demand.
//!
//! A probe plans its three pairs on one [`RoutePlanner`] at the
//! probe's time of day, and asks each pair for
//! [`alternatives`](RoutePlanner::alternatives): the route count,
//! expansions and travel times it reports, with no route list built.
//! The planner's working memory (the edge-cost table, penalty flags,
//! search buffers and the distinct routes' nodes, one
//! [`PlannerScratch`]) is kept on a free list from one probe to the
//! next, one entry per thread that probed at once, as
//! [`KernelEvaluator`](crate::kernel::KernelEvaluator) keeps the VM's.
//! A warm probe therefore allocates only the evaluation it returns:
//! three metric names, the map's node and its `Arc`. A route list that
//! grows past every earlier probe's (more alternatives, longer routes)
//! still grows the kept buffer once.

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::Evaluator;
use crate::FreeList;
use antarex_apps::nav::route::{PlannerScratch, RoutePlanner};
use antarex_apps::nav::{RoadNetwork, TrafficModel};
use antarex_tuner::Configuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evaluates navigation design points on a road network.
///
/// Workload features: `[time_of_day_s, od_spread]` — when a tenant
/// carries fewer features the missing ones default to morning rush
/// hour and full-network spread.
#[derive(Debug, Clone)]
pub struct NavEvaluator {
    network: RoadNetwork,
    traffic: TrafficModel,
    /// The planner memory of finished probes, for the next ones.
    scratch: FreeList<PlannerScratch>,
    /// Node expansions per second per core (planner throughput); the
    /// same calibration as [`antarex_apps::nav::NavigationServer`].
    pub expansions_per_s: f64,
    /// Power proxy: watts burned per thousand node expansions.
    pub watts_per_kexpansion: f64,
}

impl NavEvaluator {
    /// Creates an evaluator over a network and traffic model.
    pub(crate) fn new(network: RoadNetwork, traffic: TrafficModel) -> Self {
        NavEvaluator {
            network,
            traffic,
            scratch: FreeList::default(),
            expansions_per_s: 1500.0,
            watts_per_kexpansion: 0.4,
        }
    }

    /// A standard 16×16 city grid under weekday traffic, seeded.
    pub fn city(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        NavEvaluator::new(
            RoadNetwork::city_grid(16, &mut rng),
            TrafficModel::weekday(),
        )
    }
}

impl Evaluator for NavEvaluator {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        let alternatives = config.get_int("alternatives").unwrap_or(1).clamp(1, 64) as usize;
        let time_of_day_s = features.first().copied().unwrap_or(8.0 * 3600.0);
        let spread = features.get(1).copied().unwrap_or(1.0).clamp(0.05, 1.0);
        // the probe's RNG is derived from the design key: identical
        // (config, features) pairs draw identical OD pairs forever
        // the historical string-fold seed, so metrics stay bit-identical
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let n = self.network.len();
        let reach = ((n as f64 * spread) as usize).max(2);
        let mut expanded_total = 0usize;
        let mut gain = 0.0;
        let mut counted = 0;
        // one time of day, so one planner prices the network for all
        // three origin–destination pairs
        let mut planner = RoutePlanner::with_scratch(
            &self.network,
            &self.traffic,
            time_of_day_s,
            self.scratch.take(),
        );
        for _ in 0..3 {
            let origin = rng.gen_range(0..n);
            let offset = rng.gen_range(1..reach);
            let destination = (origin + offset) % n;
            if let Some(found) = planner.alternatives(origin, destination, alternatives) {
                expanded_total += found.expanded;
                gain += found.first_travel_time_s / found.best_travel_time_s.max(1e-9);
                counted += 1;
            }
        }
        self.scratch.give_back(planner.into_scratch());
        let latency_s = expanded_total as f64 / self.expansions_per_s;
        let quality = if counted > 0 {
            gain / f64::from(counted)
        } else {
            1.0
        };
        let power_w = 5.0 + self.watts_per_kexpansion * expanded_total as f64 / 1000.0;
        Evaluation {
            metrics: [
                ("latency".to_string(), latency_s),
                ("quality".to_string(), quality),
                ("power".to_string(), power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: latency_s,
            energy_j: power_w * latency_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_tuner::KnobValue;

    fn config(alternatives: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("alternatives", KnobValue::Int(alternatives));
        c
    }

    #[test]
    fn evaluation_is_pure() {
        let evaluator = NavEvaluator::city(40);
        let a = evaluator.evaluate(&config(4), &[8.0 * 3600.0, 1.0]);
        let b = evaluator.evaluate(&config(4), &[8.0 * 3600.0, 1.0]);
        assert_eq!(a, b, "identical design points must evaluate identically");
    }

    #[test]
    fn more_alternatives_cost_more_and_route_no_worse() {
        let evaluator = NavEvaluator::city(41);
        let features = [8.0 * 3600.0, 1.0];
        let lo = evaluator.evaluate(&config(1), &features);
        let hi = evaluator.evaluate(&config(8), &features);
        let latency = |e: &Evaluation| e.metrics["latency"];
        assert!(
            latency(&hi) > latency(&lo) * 2.0,
            "8 alternatives {} vs 1 alternative {}",
            latency(&hi),
            latency(&lo)
        );
        assert!(hi.metrics["quality"] >= 1.0);
        assert!(
            (lo.metrics["quality"] - 1.0).abs() < 1e-12,
            "k=1 gains nothing"
        );
        assert!(hi.metrics["power"] > lo.metrics["power"]);
    }

    #[test]
    fn features_change_the_workload() {
        let evaluator = NavEvaluator::city(42);
        let rush = evaluator.evaluate(&config(4), &[8.0 * 3600.0, 1.0]);
        let night = evaluator.evaluate(&config(4), &[3.0 * 3600.0, 1.0]);
        assert_ne!(rush, night, "time of day must matter");
    }

    #[test]
    fn missing_knob_defaults_to_one_alternative() {
        let evaluator = NavEvaluator::city(43);
        let e = evaluator.evaluate(&Configuration::new(), &[]);
        assert!(e.metrics["latency"] > 0.0);
        assert_eq!(e.cost_s, e.metrics["latency"]);
    }

    #[test]
    fn two_threads_probing_one_evaluator_reproduce_the_serial_probes() {
        // knob settings that shrink and grow the kept route buffer, at
        // hours and spreads that move the cost table and the routes
        let design: Vec<(i64, [f64; 2])> = [1, 8, 2, 4, 1, 6]
            .into_iter()
            .flat_map(|k| {
                [[3.0, 0.4], [8.0, 1.0], [12.0, 0.1], [18.0, 0.8]]
                    .map(|[hour, spread]| (k, [hour * 3600.0, spread]))
            })
            .collect();
        let probe = |evaluator: &NavEvaluator, (k, features): &(i64, [f64; 2])| {
            evaluator.evaluate(&config(*k), features)
        };
        let serial_evaluator = NavEvaluator::city(44);
        let serial: Vec<_> = design
            .iter()
            .map(|point| probe(&serial_evaluator, point))
            .collect();

        let shared = NavEvaluator::city(44);
        std::thread::scope(|scope| {
            let forward = scope.spawn(|| design.iter().map(|p| probe(&shared, p)).collect());
            let backward = scope.spawn(|| design.iter().rev().map(|p| probe(&shared, p)).collect());
            let forward: Vec<_> = forward.join().unwrap();
            let mut backward: Vec<_> = backward.join().unwrap();
            backward.reverse();
            assert_eq!(forward, serial, "forward thread");
            assert_eq!(backward, serial, "backward thread");
        });
        let kept = crate::lock_or_recover(&shared.scratch.0).len();
        assert!(
            (1..=2).contains(&kept),
            "one kept scratch per thread that probed at once, not {kept}"
        );
        assert_eq!(
            crate::lock_or_recover(&shared.clone().scratch.0).len(),
            0,
            "a clone starts with none"
        );
    }
}
