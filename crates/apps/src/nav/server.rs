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
use super::route::{alternative_routes, Route};
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
#[derive(Debug, Clone)]
pub struct NavigationServer {
    network: RoadNetwork,
    traffic: TrafficModel,
    /// Worker cores serving requests.
    pub cores: usize,
    /// Node expansions per second per core (planner throughput).
    pub expansions_per_s: f64,
    alternatives: usize,
    backlog_s: f64,
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

    /// Draws an OD pair, plans the configured alternatives and charges
    /// the compute to the shared backlog. Returns the drawn pair, the
    /// routes, and the (queueing, compute) latency split.
    fn serve_core(
        &mut self,
        arrival_s: f64,
        rng: &mut impl Rng,
    ) -> Result<(usize, usize, Vec<Route>, f64, f64), NavError> {
        if self.network.is_empty() {
            return Err(NavError::EmptyNetwork);
        }
        let origin = rng.gen_range(0..self.network.len());
        let destination = rng.gen_range(0..self.network.len());
        let routes = alternative_routes(
            &self.network,
            &self.traffic,
            origin,
            destination,
            arrival_s,
            self.alternatives,
        );
        let expanded: usize = routes.iter().map(|r| r.expanded).sum();
        let compute_s = expanded as f64 / self.expansions_per_s / self.cores as f64;
        let queueing_s = self.backlog_s;
        // the work was done even when no route came back
        self.backlog_s += compute_s;
        Ok((origin, destination, routes, queueing_s, compute_s))
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
            Ok((_, _, routes, queueing_s, compute_s)) => RequestOutcome {
                arrival_s,
                latency_s: queueing_s + compute_s,
                best_travel_time_s: routes
                    .first()
                    .map(|r| r.travel_time_s)
                    .unwrap_or(f64::INFINITY),
                alternatives: routes.len(),
            },
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let mut rng = StdRng::seed_from_u64(26);
        let network = RoadNetwork::city_grid(4, &mut rng);
        let _ = NavigationServer::new(network, TrafficModel::weekday(), 0);
    }
}
