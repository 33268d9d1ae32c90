//! Time-dependent congestion.
//!
//! Edge travel times are the free-flow base scaled by a congestion
//! multiplier that follows the daily rush-hour profile, hits city streets
//! harder than highways, and includes randomly scattered incidents —
//! the "contextual information" (§III) the self-adaptive navigation
//! server reacts to.

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

    /// Congestion multiplier for an edge at a time of day.
    pub(crate) fn multiplier(
        &self,
        from: usize,
        edge_index: usize,
        highway: bool,
        time_of_day_s: f64,
    ) -> f64 {
        let peak = if highway {
            self.highway_peak
        } else {
            self.street_peak
        };
        let mut m = rush_hour_profile(time_of_day_s, peak);
        for incident in &self.incidents {
            if incident.from == from
                && incident.edge_index == edge_index
                && (incident.start_s..incident.end_s).contains(&time_of_day_s)
            {
                m *= incident.severity;
            }
        }
        m
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
        let street = traffic.multiplier(0, 0, false, rush);
        let highway = traffic.multiplier(0, 0, true, rush);
        assert!(street > highway);
        assert!(street > 2.0);
        // night is quiet
        assert!(traffic.multiplier(0, 0, false, 3.0 * 3600.0) < 1.3);
    }

    #[test]
    fn incidents_multiply_in_their_window() {
        let traffic = TrafficModel {
            street_peak: 1.0,
            highway_peak: 1.0,
            incidents: vec![Incident {
                from: 5,
                edge_index: 1,
                start_s: 100.0,
                end_s: 200.0,
                severity: 3.0,
            }],
        };
        assert_eq!(traffic.multiplier(5, 1, false, 150.0), 3.0);
        assert_eq!(traffic.multiplier(5, 1, false, 250.0), 1.0);
        assert_eq!(
            traffic.multiplier(5, 0, false, 150.0),
            1.0,
            "other edge clear"
        );
    }

    #[test]
    fn incident_generation() {
        let mut rng = StdRng::seed_from_u64(9);
        let traffic = TrafficModel::weekday().with_incidents(20, 100, &mut rng);
        assert_eq!(traffic.incidents.len(), 20);
        assert!(traffic.incidents.iter().all(|i| i.end_s > i.start_s));
    }
}
