//! Synthetic road network: an urban grid with a highway overlay.

use rand::Rng;

/// A directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge {
    /// Destination node.
    pub to: usize,
    /// Free-flow travel time, seconds.
    pub base_time_s: f64,
    /// `true` for highway segments (congestion behaves differently).
    pub highway: bool,
}

/// A road network with planar node coordinates (for A* heuristics).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    coords: Vec<(f64, f64)>,
    adjacency: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl RoadNetwork {
    /// Builds an `n × n` city grid (50 km/h streets, 500 m blocks) with a
    /// sparse highway overlay (110 km/h, skipping several blocks), with
    /// slight random perturbation of street times.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn city_grid(n: usize, rng: &mut impl Rng) -> Self {
        assert!(n >= 2, "grid must be at least 2x2");
        let block_m = 500.0;
        let street_time = block_m / (50.0 / 3.6);
        let mut network = RoadNetwork {
            coords: (0..n * n)
                .map(|i| ((i % n) as f64 * block_m, (i / n) as f64 * block_m))
                .collect(),
            adjacency: vec![Vec::new(); n * n],
            edge_count: 0,
        };
        let id = |x: usize, y: usize| y * n + x;
        for y in 0..n {
            for x in 0..n {
                let mut jitter = || 1.0 + rng.gen_range(-0.15..0.25);
                let (j1, j2) = (jitter(), jitter());
                if x + 1 < n {
                    network.add_bidirectional(id(x, y), id(x + 1, y), street_time * j1, false);
                }
                if y + 1 < n {
                    network.add_bidirectional(id(x, y), id(x, y + 1), street_time * j2, false);
                }
            }
        }
        // highway ring at 1/4 and 3/4 rows/columns, skipping 4 blocks a hop
        let q1 = n / 4;
        let q3 = (3 * n) / 4;
        let hop = 4.min(n - 1);
        let hw_time = (hop as f64 * block_m) / (110.0 / 3.6);
        for fixed in [q1, q3] {
            let mut x = 0;
            while x + hop < n {
                network.add_bidirectional(id(x, fixed), id(x + hop, fixed), hw_time, true);
                network.add_bidirectional(id(fixed, x), id(fixed, x + hop), hw_time, true);
                x += hop;
            }
        }
        network
    }

    fn add_bidirectional(&mut self, a: usize, b: usize, time: f64, highway: bool) {
        self.adjacency[a].push(Edge {
            to: b,
            base_time_s: time,
            highway,
        });
        self.adjacency[b].push(Edge {
            to: a,
            base_time_s: time,
            highway,
        });
        self.edge_count += 2;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Outgoing edges of a node.
    pub(crate) fn edges(&self, node: usize) -> &[Edge] {
        &self.adjacency[node]
    }

    /// Euclidean distance between two nodes, metres.
    pub(crate) fn distance_m(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.coords[a];
        let (bx, by) = self.coords[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Admissible travel-time lower bound between nodes (highway speed
    /// over the straight-line distance), seconds — the A* heuristic.
    pub(crate) fn heuristic_s(&self, a: usize, b: usize) -> f64 {
        self.distance_m(a, b) / (110.0 / 3.6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let network = RoadNetwork::city_grid(10, &mut rng);
        assert_eq!(network.len(), 100);
        // 2 * (2 * 10 * 9) street edges plus highway edges
        let edge_count: usize = (0..network.len()).map(|n| network.edges(n).len()).sum();
        assert!(edge_count > 360);
        // corner has exactly 2 street neighbours
        assert_eq!(network.edges(0).len(), 2);
    }

    #[test]
    fn highways_are_faster_per_metre() {
        let mut rng = StdRng::seed_from_u64(2);
        let network = RoadNetwork::city_grid(12, &mut rng);
        let mut street_speed: f64 = 0.0;
        let mut highway_speed: f64 = 0.0;
        for node in 0..network.len() {
            for edge in network.edges(node) {
                let d = network.distance_m(node, edge.to);
                let v = d / edge.base_time_s;
                if edge.highway {
                    highway_speed = highway_speed.max(v);
                } else {
                    street_speed = street_speed.max(v);
                }
            }
        }
        assert!(highway_speed > street_speed * 1.5);
    }

    #[test]
    fn heuristic_is_admissible_on_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let network = RoadNetwork::city_grid(8, &mut rng);
        for node in 0..network.len() {
            for edge in network.edges(node) {
                assert!(
                    network.heuristic_s(node, edge.to) <= edge.base_time_s + 1e-9,
                    "heuristic overestimates edge {node}->{}",
                    edge.to
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_grid_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = RoadNetwork::city_grid(1, &mut rng);
    }
}
