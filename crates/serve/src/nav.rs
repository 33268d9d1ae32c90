//! Navigation-backed design-point evaluation.
//!
//! Wires the §VII-b navigation use case through the service: a probe
//! for a (quality knob, workload features) pair runs the real
//! alternative-route planner on the shared road network and reports
//! latency, route quality, and a power proxy. The probe derives its
//! origin/destination draws from a seed mixed out of the design key
//! itself, making it a pure function of (configuration, features) —
//! the purity the pool and the cache demand.

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::Evaluator;
use antarex_apps::nav::route::RoutePlanner;
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
        let mut planner = RoutePlanner::new(&self.network, &self.traffic, time_of_day_s);
        for _ in 0..3 {
            let origin = rng.gen_range(0..n);
            let offset = rng.gen_range(1..reach);
            let destination = (origin + offset) % n;
            let routes = planner.alternative_routes(origin, destination, alternatives);
            expanded_total += routes.iter().map(|r| r.expanded).sum::<usize>();
            if let Some(first) = routes.first() {
                let best = routes
                    .iter()
                    .map(|r| r.travel_time_s)
                    .fold(f64::INFINITY, f64::min);
                gain += first.travel_time_s / best.max(1e-9);
                counted += 1;
            }
        }
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
}
