//! The server-side navigation service.
//!
//! Requests arrive at a time-varying rate; each is answered by computing
//! `alternatives` candidate routes (the quality knob) on a pool of worker
//! cores. Latency is modelled from search effort: expanded nodes divided
//! by the core's expansion throughput, plus queueing delay when offered
//! load exceeds capacity — exactly the regime where the ANTAREX runtime
//! must shed quality to hold the latency SLA.

use super::error::NavError;
use super::graph::RoadNetwork;
use super::route::{Alternatives, PlannerScratch, RoutePlanner};
use super::traffic::TrafficModel;
use rand::Rng;

/// Outcome of serving one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Time the request arrived, seconds of day.
    pub arrival_s: f64,
    /// Total latency (queueing + compute), seconds.
    pub latency_s: f64,
    /// Travel time of the returned best route, seconds.
    pub best_travel_time_s: f64,
    /// Number of alternatives actually computed.
    pub alternatives: usize,
}

/// The navigation server.
#[derive(Debug)]
pub struct NavigationServer {
    network: RoadNetwork,
    traffic: TrafficModel,
    /// Worker cores serving requests.
    pub cores: usize,
    /// Node expansions per second per core (planner throughput).
    pub expansions_per_s: f64,
    alternatives: usize,
    backlog_s: f64,
    /// The route planner's memory, kept from one request to the next.
    scratch: PlannerScratch,
}

impl Clone for NavigationServer {
    /// A copy of the server's state; its planner starts on empty
    /// memory, since a scratch carries capacity and never state.
    fn clone(&self) -> Self {
        NavigationServer {
            network: self.network.clone(),
            traffic: self.traffic.clone(),
            cores: self.cores,
            expansions_per_s: self.expansions_per_s,
            alternatives: self.alternatives,
            backlog_s: self.backlog_s,
            scratch: PlannerScratch::default(),
        }
    }
}

impl NavigationServer {
    /// Creates a server over a network and traffic model with the given
    /// worker-core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(network: RoadNetwork, traffic: TrafficModel, cores: usize) -> Self {
        assert!(cores > 0, "server needs at least one core");
        NavigationServer {
            network,
            traffic,
            cores,
            // time-dependent planners hit the traffic model on every edge
            // relaxation: ~1500 expansions/s/core, calibrated so a
            // full-quality request costs hundreds of milliseconds — the
            // regime where rush-hour load genuinely saturates the server
            expansions_per_s: 1500.0,
            alternatives: 4,
            backlog_s: 0.0,
            scratch: PlannerScratch::default(),
        }
    }

    /// The current quality knob: alternatives per request.
    pub fn alternatives(&self) -> usize {
        self.alternatives
    }

    /// Sets the quality knob.
    ///
    /// # Panics
    ///
    /// Panics if `alternatives` is zero.
    pub fn set_alternatives(&mut self, alternatives: usize) {
        assert!(alternatives > 0, "need at least one route");
        self.alternatives = alternatives;
    }

    /// Lets the queue drain for `dt` seconds of wall time without
    /// arrivals.
    pub fn drain(&mut self, dt: f64) {
        self.backlog_s = (self.backlog_s - dt).max(0.0);
    }

    /// Draws an OD pair, plans the configured alternatives in the
    /// server's kept planner memory and charges the compute to the
    /// shared backlog. Returns what the planner found (`None` for an
    /// unreachable destination) and the (queueing, compute) latency
    /// split.
    fn serve_core(
        &mut self,
        arrival_s: f64,
        rng: &mut impl Rng,
    ) -> Result<(Option<Alternatives>, f64, f64), NavError> {
        if self.network.is_empty() {
            return Err(NavError::EmptyNetwork);
        }
        let origin = rng.gen_range(0..self.network.len());
        let destination = rng.gen_range(0..self.network.len());
        let scratch = std::mem::take(&mut self.scratch);
        let mut planner =
            RoutePlanner::with_scratch(&self.network, &self.traffic, arrival_s, scratch);
        let found = planner.alternatives(origin, destination, self.alternatives);
        self.scratch = planner.into_scratch();
        let expanded = found.map_or(0, |a| a.expanded);
        let compute_s = expanded as f64 / self.expansions_per_s / self.cores as f64;
        let queueing_s = self.backlog_s;
        // the work was done even when no route came back
        self.backlog_s += compute_s;
        Ok((found, queueing_s, compute_s))
    }

    /// Serves one request arriving at `arrival_s` between two random
    /// nodes, computing the configured number of alternatives and
    /// returning the outcome. Queueing is modelled by a shared backlog:
    /// service time adds to it, divided by the core count. An
    /// unreachable destination is reported as an infinite best travel
    /// time rather than an error.
    ///
    /// # Panics
    ///
    /// Panics when the network is empty.
    pub fn serve(&mut self, arrival_s: f64, rng: &mut impl Rng) -> RequestOutcome {
        match self.serve_core(arrival_s, rng) {
            Ok((found, queueing_s, compute_s)) => RequestOutcome {
                arrival_s,
                latency_s: queueing_s + compute_s,
                best_travel_time_s: found.map_or(f64::INFINITY, |a| a.first_travel_time_s),
                alternatives: found.map_or(0, |a| a.count),
            },
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nav::alternative_routes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn server() -> NavigationServer {
        let mut rng = StdRng::seed_from_u64(20);
        let network = RoadNetwork::city_grid(16, &mut rng);
        NavigationServer::new(network, TrafficModel::weekday(), 4)
    }

    #[test]
    fn serving_accumulates_backlog_under_burst() {
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(21);
        let first = s.serve(8.0 * 3600.0, &mut rng);
        assert_eq!(first.latency_s, first.latency_s.max(0.0));
        let mut last = first.latency_s;
        // a burst with no draining piles up queueing delay
        for _ in 0..20 {
            let outcome = s.serve(8.0 * 3600.0, &mut rng);
            last = outcome.latency_s;
        }
        assert!(last > first.latency_s, "queueing must build: {last}");
        assert!(s.backlog_s > 0.0);
    }

    #[test]
    fn draining_empties_the_queue() {
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..10 {
            s.serve(8.0 * 3600.0, &mut rng);
        }
        s.drain(1e9);
        assert_eq!(s.backlog_s, 0.0);
    }

    #[test]
    fn fewer_alternatives_are_faster() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut hi = server();
        hi.set_alternatives(8);
        let mut lo = server();
        lo.set_alternatives(1);
        let mut hi_total = 0.0;
        let mut lo_total = 0.0;
        for _ in 0..10 {
            let mut r1 = rng.clone();
            hi_total += hi.serve(3600.0, &mut r1).latency_s;
            lo_total += lo.serve(3600.0, &mut rng).latency_s;
            hi.drain(1e9);
            lo.drain(1e9);
        }
        assert!(
            hi_total > lo_total * 2.0,
            "8 alternatives {hi_total} vs 1 alternative {lo_total}"
        );
    }

    #[test]
    fn outcome_fields_are_sane() {
        let mut s = server();
        let outcome = s.serve(5.0 * 3600.0, &mut StdRng::seed_from_u64(25));
        assert!(outcome.latency_s > 0.0);
        assert!(outcome.alternatives >= 1);
        assert!(outcome.best_travel_time_s >= 0.0);
    }

    #[test]
    fn the_kept_planner_serves_what_a_fresh_route_list_says() {
        let mut rng = StdRng::seed_from_u64(20);
        let network = RoadNetwork::city_grid(16, &mut rng);
        let traffic = TrafficModel::weekday();
        for k in 1..=4 {
            let mut s = NavigationServer::new(network.clone(), traffic.clone(), 4);
            s.set_alternatives(k);
            let mut draws = StdRng::seed_from_u64(27 + k as u64);
            for request in 0..24 {
                let arrival_s = 3600.0 * request as f64;
                let mut fresh = draws.clone();
                let outcome = s.serve(arrival_s, &mut draws);
                // a drained queue: the latency is the compute alone
                s.drain(1e9);
                let origin = fresh.gen_range(0..network.len());
                let destination = fresh.gen_range(0..network.len());
                let routes =
                    alternative_routes(&network, &traffic, origin, destination, arrival_s, k);
                let expanded: usize = routes.iter().map(|r| r.expanded).sum();
                let compute_s = expanded as f64 / s.expansions_per_s / s.cores as f64;
                let best = routes.first().map_or(f64::INFINITY, |r| r.travel_time_s);
                assert_eq!(outcome.alternatives, routes.len(), "k {k}, #{request}");
                assert_eq!(outcome.latency_s.to_bits(), compute_s.to_bits());
                assert_eq!(outcome.best_travel_time_s.to_bits(), best.to_bits());
            }
            // a clone starts on empty planner memory and serves the same
            let mut copy = s.clone();
            let mut a = StdRng::seed_from_u64(99);
            let mut b = a.clone();
            assert_eq!(s.serve(7200.0, &mut a), copy.serve(7200.0, &mut b));
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let mut rng = StdRng::seed_from_u64(26);
        let network = RoadNetwork::city_grid(4, &mut rng);
        let _ = NavigationServer::new(network, TrafficModel::weekday(), 0);
    }
}
