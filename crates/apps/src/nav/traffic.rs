//! Time-dependent congestion.
//!
//! Edge travel times are the free-flow base scaled by a congestion
//! multiplier that follows the daily rush-hour profile, hits city streets
//! harder than highways, and includes randomly scattered incidents —
//! the "contextual information" (§III) the self-adaptive navigation
//! server reacts to.

use super::graph::RoadNetwork;
use antarex_sim::workload::rush_hour_profile;
use rand::Rng;

/// An incident slowing one edge for a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Incident {
    /// Edge owner node.
    pub from: usize,
    /// Edge index within the node's adjacency.
    pub edge_index: usize,
    /// Start time, seconds of day.
    pub start_s: f64,
    /// End time, seconds of day.
    pub end_s: f64,
    /// Extra multiplier while active (e.g. 3.0).
    pub severity: f64,
}

/// The traffic state generator.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    /// Peak rush-hour multiplier on city streets.
    pub street_peak: f64,
    /// Peak rush-hour multiplier on highways.
    pub highway_peak: f64,
    incidents: Vec<Incident>,
}

impl TrafficModel {
    /// A typical weekday: streets up to 2.6× at rush hour, highways up to
    /// 1.8×, no incidents.
    pub fn weekday() -> Self {
        TrafficModel {
            street_peak: 2.6,
            highway_peak: 1.8,
            incidents: Vec::new(),
        }
    }

    /// Adds `count` random incidents over the day across `nodes` nodes
    /// with up to `max_edges` adjacency entries each.
    pub fn with_incidents(mut self, count: usize, nodes: usize, rng: &mut impl Rng) -> Self {
        for _ in 0..count {
            let start = rng.gen_range(0.0..20.0 * 3600.0);
            self.incidents.push(Incident {
                from: rng.gen_range(0..nodes),
                edge_index: rng.gen_range(0..4),
                start_s: start,
                end_s: start + rng.gen_range(600.0..7200.0),
                severity: rng.gen_range(2.0..5.0),
            });
        }
        self
    }

    /// Rush-hour multiplier of a road class at a time of day: the part
    /// of an edge's congestion every edge of the class shares.
    pub(crate) fn profile(&self, highway: bool, time_of_day_s: f64) -> f64 {
        let peak = if highway {
            self.highway_peak
        } else {
            self.street_peak
        };
        rush_hour_profile(time_of_day_s, peak)
    }

    /// The incidents active at a time of day, in list order.
    pub(crate) fn incidents_at(&self, time_of_day_s: f64) -> impl Iterator<Item = &Incident> {
        self.incidents
            .iter()
            .filter(move |incident| (incident.start_s..incident.end_s).contains(&time_of_day_s))
    }

    /// Fills `costs` with the congested travel time of every edge of
    /// `network` at a time of day, indexed by flat edge id: the free-flow
    /// time scaled by the edge's multiplier, which is its class
    /// [`profile`](Self::profile) times the severity of each active
    /// incident on the edge, applied in list order. An incident naming an
    /// edge the network lacks slows nothing.
    pub(crate) fn edge_costs(
        &self,
        network: &RoadNetwork,
        time_of_day_s: f64,
        costs: &mut Vec<f64>,
    ) {
        let class = [
            self.profile(false, time_of_day_s),
            self.profile(true, time_of_day_s),
        ];
        let edges = network.all_edges();
        // the multipliers first, scaled to costs once they are complete
        costs.clear();
        costs.extend(edges.iter().map(|edge| class[usize::from(edge.highway)]));
        for incident in self.incidents_at(time_of_day_s) {
            if let Some(id) = network.edge_id(incident.from, incident.edge_index) {
                costs[id] *= incident.severity;
            }
        }
        for (m, edge) in costs.iter_mut().zip(edges) {
            *m *= edge.base_time_s;
        }
    }
}

impl Default for TrafficModel {
    fn default() -> Self {
        Self::weekday()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rush_hour_hits_streets_harder() {
        let traffic = TrafficModel::weekday();
        let rush = 8.0 * 3600.0;
        let street = traffic.profile(false, rush);
        let highway = traffic.profile(true, rush);
        assert!(street > highway);
        assert!(street > 2.0);
        // night is quiet
        assert!(traffic.profile(false, 3.0 * 3600.0) < 1.3);
    }

    #[test]
    fn incidents_multiply_in_their_window() {
        let network = RoadNetwork::city_grid(4, &mut StdRng::seed_from_u64(8));
        let incident = |from, edge_index, severity| Incident {
            from,
            edge_index,
            start_s: 100.0,
            end_s: 200.0,
            severity,
        };
        let traffic = TrafficModel {
            street_peak: 1.0,
            highway_peak: 1.0,
            // two on one edge compound; one names an edge node 0 lacks
            incidents: vec![
                incident(5, 1, 3.0),
                incident(0, 3, 9.0),
                incident(5, 1, 2.0),
            ],
        };
        let free = |id: usize| network.all_edges()[id].base_time_s;
        let hit = network.edge_id(5, 1).unwrap();
        let mut during = Vec::new();
        traffic.edge_costs(&network, 150.0, &mut during);
        assert_eq!(during[hit], free(hit) * (3.0 * 2.0));
        // a reused buffer holds the new time's costs only
        let mut after = during.clone();
        traffic.edge_costs(&network, 250.0, &mut after);
        assert_eq!(after.len(), during.len());
        assert_eq!(after[hit], free(hit));
        for id in (0..during.len()).filter(|&id| id != hit) {
            assert_eq!(during[id], free(id), "other edges clear");
        }
    }

    #[test]
    fn incident_generation() {
        let mut rng = StdRng::seed_from_u64(9);
        let traffic = TrafficModel::weekday().with_incidents(20, 100, &mut rng);
        assert_eq!(traffic.incidents.len(), 20);
        assert!(traffic.incidents.iter().all(|i| i.end_s > i.start_s));
    }
}
