//! Synthetic road network: an urban grid with a highway overlay.
//!
//! Edges are stored in compressed-sparse-row (CSR) form: one flat array
//! holding every node's outgoing edges node by node, plus an offset per
//! node. An edge's index in that array is its *flat edge id*, which the
//! route planner uses to index its per-edge tables (congested cost,
//! penalty flags) directly.

use rand::Rng;
use std::ops::Range;

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
    /// Every node's outgoing edges, node by node, each node's in the
    /// order they were added.
    edges: Vec<Edge>,
    /// Node `v`'s edges are `edges[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
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
        let mut adjacency: Vec<Vec<Edge>> = vec![Vec::new(); n * n];
        let mut link = |a: usize, b: usize, base_time_s: f64, highway: bool| {
            for (from, to) in [(a, b), (b, a)] {
                adjacency[from].push(Edge {
                    to,
                    base_time_s,
                    highway,
                });
            }
        };
        let id = |x: usize, y: usize| y * n + x;
        for y in 0..n {
            for x in 0..n {
                let mut jitter = || 1.0 + rng.gen_range(-0.15..0.25);
                let (j1, j2) = (jitter(), jitter());
                if x + 1 < n {
                    link(id(x, y), id(x + 1, y), street_time * j1, false);
                }
                if y + 1 < n {
                    link(id(x, y), id(x, y + 1), street_time * j2, false);
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
                link(id(x, fixed), id(x + hop, fixed), hw_time, true);
                link(id(fixed, x), id(fixed, x + hop), hw_time, true);
                x += hop;
            }
        }
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        offsets.push(0);
        let mut edges = Vec::with_capacity(adjacency.iter().map(Vec::len).sum());
        for node_edges in adjacency {
            edges.extend(node_edges);
            offsets.push(edges.len());
        }
        RoadNetwork {
            coords: (0..n * n)
                .map(|i| ((i % n) as f64 * block_m, (i / n) as f64 * block_m))
                .collect(),
            edges,
            offsets,
        }
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
        &self.edges[self.edge_ids(node)]
    }

    /// Flat ids of a node's outgoing edges, in adjacency order.
    pub(crate) fn edge_ids(&self, node: usize) -> Range<usize> {
        self.offsets[node]..self.offsets[node + 1]
    }

    /// Flat id of a node's `edge_index`-th outgoing edge, if it exists.
    pub(crate) fn edge_id(&self, node: usize, edge_index: usize) -> Option<usize> {
        let start = *self.offsets.get(node)?;
        let end = *self.offsets.get(node + 1)?;
        (edge_index < end - start).then_some(start + edge_index)
    }

    /// Every edge, indexed by flat id.
    pub(crate) fn all_edges(&self) -> &[Edge] {
        &self.edges
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
    fn flat_ids_address_each_nodes_edges_in_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let network = RoadNetwork::city_grid(6, &mut rng);
        let mut next_id = 0;
        for node in 0..network.len() {
            for (edge_index, edge) in network.edges(node).iter().enumerate() {
                assert_eq!(network.edge_id(node, edge_index), Some(next_id));
                assert_eq!(network.all_edges()[next_id], *edge);
                next_id += 1;
            }
            assert_eq!(network.edge_id(node, network.edges(node).len()), None);
        }
        assert_eq!(next_id, network.all_edges().len());
        assert_eq!(network.edge_id(network.len(), 0), None, "no such node");
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
