//! Route planning: Dijkstra, A*, and penalty-based alternatives.
//!
//! Every search runs through one [`RoutePlanner`], built for a (network,
//! traffic, time of day) triple. Departure time is held constant during a
//! search, so the planner prices every edge once, up front: a congested
//! cost table over flat edge ids ([`RoadNetwork`]'s CSR order) with the
//! rush-hour profile evaluated once per road class. A relaxation is then
//! one table load, one penalty-flag test and one heap push.
//!
//! The planner's working memory is one [`PlannerScratch`]: the cost
//! table, the penalty flags, the search buffers (distances, predecessor
//! edges, settled flags, the heap), the last route's edges, and the node
//! sequences of the distinct alternatives found so far. Searches reuse
//! it, and [`RoutePlanner::into_scratch`] hands it to the next planner
//! ([`RoutePlanner::with_scratch`]), so a caller planning at many times
//! of day allocates it once. A search allocates nothing. The rounds of
//! penalization have two front ends: [`RoutePlanner::alternative_routes`]
//! builds a node list per distinct route, and
//! [`RoutePlanner::alternatives`] summarises the same rounds without
//! allocating. [`shortest_path`] and [`alternative_routes`] are one-shot
//! planners; a caller with several origin–destination pairs at one time
//! of day builds one planner and asks it each.

use super::graph::RoadNetwork;
use super::traffic::TrafficModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::iter;

/// A computed route.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Node sequence from origin to destination.
    pub nodes: Vec<usize>,
    /// Congested travel time, seconds.
    pub travel_time_s: f64,
    /// Search effort: priority-queue pops performed (the latency driver).
    pub expanded: usize,
}

/// What [`RoutePlanner::alternatives`] found for one origin–destination
/// pair: the figures a caller reads off [`alternative_routes`]' list,
/// without the list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alternatives {
    /// Distinct routes found, at least one.
    pub count: usize,
    /// Priority-queue pops of the searches that found them, summed.
    pub expanded: usize,
    /// Unpenalized travel time of the first route found, seconds.
    pub first_travel_time_s: f64,
    /// Least unpenalized travel time of the routes found, seconds.
    pub best_travel_time_s: f64,
}

#[derive(Debug, PartialEq)]
struct QueueEntry {
    node: usize,
    cost: f64,
    estimate: f64,
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.estimate.total_cmp(&self.estimate)
    }
}

/// Cost factor on an edge an earlier alternative already used.
const PENALTY: f64 = 4.0;

/// A route planner's working memory, handed from one planner to the
/// next. It carries capacity, never state:
/// [`RoutePlanner::with_scratch`] clears and resizes every buffer.
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Congested travel time of every edge, by flat edge id.
    cost: Vec<f64>,
    /// Edges the current rounds of penalization have penalized, by flat
    /// edge id.
    penalized: Vec<bool>,
    dist: Vec<f64>,
    /// `(predecessor node, flat id of the edge taken from it)` for every
    /// node the current search reached; stale entries are never read.
    prev: Vec<(usize, usize)>,
    settled: Vec<bool>,
    heap: BinaryHeap<QueueEntry>,
    /// Flat edge ids of the last route found, destination end first.
    path: Vec<usize>,
    /// The nodes after the origin of each distinct route the current
    /// rounds found, one route after the other.
    route_nodes: Vec<usize>,
    /// Where each of those routes ends in `route_nodes`.
    route_ends: Vec<usize>,
}

/// Empties `buffer` and fills it with `len` copies of `value`.
fn refill<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
    buffer.clear();
    buffer.resize(len, value);
}

/// The route planner for one network under one traffic state at one time
/// of day.
#[derive(Debug)]
pub struct RoutePlanner<'a> {
    network: &'a RoadNetwork,
    scratch: PlannerScratch,
}

impl<'a> RoutePlanner<'a> {
    /// Prices every edge of `network` under `traffic` at a departure
    /// time and allocates the search buffers.
    pub fn new(network: &'a RoadNetwork, traffic: &TrafficModel, time_of_day_s: f64) -> Self {
        Self::with_scratch(network, traffic, time_of_day_s, PlannerScratch::default())
    }

    /// [`new`](Self::new) in the memory of `scratch`, which an earlier
    /// planner handed back through [`into_scratch`](Self::into_scratch)
    /// (on any network, traffic or time of day): a planner whose
    /// scratch is already large enough allocates nothing.
    pub fn with_scratch(
        network: &'a RoadNetwork,
        traffic: &TrafficModel,
        time_of_day_s: f64,
        mut scratch: PlannerScratch,
    ) -> Self {
        let n = network.len();
        let edges = network.all_edges().len();
        traffic.edge_costs(network, time_of_day_s, &mut scratch.cost);
        refill(&mut scratch.penalized, edges, false);
        refill(&mut scratch.dist, n, f64::INFINITY);
        refill(&mut scratch.prev, n, (usize::MAX, usize::MAX));
        refill(&mut scratch.settled, n, false);
        // a node is pushed once per improving relaxation, so a search
        // pushes at most one entry per edge plus the origin
        scratch.heap.clear();
        scratch.heap.reserve(edges + 1);
        scratch.path.clear();
        scratch.path.reserve(n);
        scratch.route_nodes.clear();
        scratch.route_ends.clear();
        RoutePlanner { network, scratch }
    }

    /// Hands the planner's working memory back for the next planner.
    pub fn into_scratch(self) -> PlannerScratch {
        self.scratch
    }

    /// A* shortest path (Dijkstra when `use_heuristic` is false); see
    /// the free function [`shortest_path`].
    pub(crate) fn shortest_path(
        &mut self,
        origin: usize,
        destination: usize,
        use_heuristic: bool,
    ) -> Option<Route> {
        self.scratch.penalized.fill(false);
        let (travel_time_s, expanded) = self.search(origin, destination, use_heuristic)?;
        let edges = self.network.all_edges();
        let nodes = iter::once(origin)
            .chain(self.scratch.path.iter().rev().map(|&id| edges[id].to))
            .collect();
        Some(Route {
            nodes,
            travel_time_s,
            expanded,
        })
    }

    /// Up to `k` alternatives by iterative edge penalization; see the
    /// free function [`alternative_routes`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn alternative_routes(
        &mut self,
        origin: usize,
        destination: usize,
        k: usize,
    ) -> Vec<Route> {
        let mut routes = Vec::new();
        self.penalization_rounds(origin, destination, k, |nodes, travel_time_s, expanded| {
            routes.push(Route {
                nodes: iter::once(origin).chain(nodes.iter().copied()).collect(),
                travel_time_s,
                expanded,
            });
        });
        routes
    }

    /// What [`alternative_routes`](Self::alternative_routes) finds,
    /// bit for bit, summarised without a node list: the number of
    /// distinct routes, their expansions summed, the first route's
    /// travel time and the least. `None` if the destination is
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn alternatives(
        &mut self,
        origin: usize,
        destination: usize,
        k: usize,
    ) -> Option<Alternatives> {
        let mut found: Option<Alternatives> = None;
        self.penalization_rounds(origin, destination, k, |_, travel_time_s, expanded| {
            let summary = found.get_or_insert(Alternatives {
                count: 0,
                expanded: 0,
                first_travel_time_s: travel_time_s,
                best_travel_time_s: f64::INFINITY,
            });
            summary.count += 1;
            summary.expanded += expanded;
            summary.best_travel_time_s = summary.best_travel_time_s.min(travel_time_s);
        });
        found
    }

    /// The rounds both front ends share: up to `k` searches, each on the
    /// network as the rounds before it penalized it. `distinct` is called
    /// in discovery order with every route whose node sequence no earlier
    /// round found: its nodes after the origin, its travel time at the
    /// unpenalized cost of the edges it took, and its search's
    /// expansions. A round that penalizes no new edge ends the rounds,
    /// since the next would search the same network and find the same
    /// route again.
    fn penalization_rounds(
        &mut self,
        origin: usize,
        destination: usize,
        k: usize,
        mut distinct: impl FnMut(&[usize], f64, usize),
    ) {
        assert!(k > 0, "need at least one route");
        let network = self.network;
        let edges = network.all_edges();
        self.scratch.penalized.fill(false);
        self.scratch.route_nodes.clear();
        self.scratch.route_ends.clear();
        for _ in 0..k {
            let Some((_, expanded)) = self.search(origin, destination, true) else {
                break;
            };
            let PlannerScratch {
                cost,
                penalized,
                path,
                route_nodes,
                route_ends,
                ..
            } = &mut self.scratch;
            // this round's nodes follow the distinct routes', replacing
            // those of a duplicate the round before found
            let start = route_ends.last().copied().unwrap_or(0);
            route_nodes.truncate(start);
            // penalize the edges this route took for the next round and
            // re-cost it at their unpenalized cost, origin end first
            let mut true_cost = 0.0;
            let mut new_edge = false;
            for &id in path.iter().rev() {
                new_edge |= !penalized[id];
                penalized[id] = true;
                true_cost += cost[id];
                route_nodes.push(edges[id].to);
            }
            let starts = iter::once(0).chain(route_ends.iter().copied());
            let is_distinct = starts
                .zip(route_ends.iter())
                .all(|(from, &end)| route_nodes[from..end] != route_nodes[start..]);
            if is_distinct {
                route_ends.push(route_nodes.len());
                distinct(&route_nodes[start..], true_cost, expanded);
            }
            if !new_edge {
                break;
            }
        }
    }

    /// One search on the network as the current rounds penalized it:
    /// the route's travel time at those costs and the search's
    /// expansions. On success `path` holds the route's edges.
    fn search(
        &mut self,
        origin: usize,
        destination: usize,
        use_heuristic: bool,
    ) -> Option<(f64, usize)> {
        let network = self.network;
        let PlannerScratch {
            cost: edge_costs,
            penalized,
            dist,
            prev,
            settled,
            heap,
            path,
            ..
        } = &mut self.scratch;
        dist.fill(f64::INFINITY);
        settled.fill(false);
        heap.clear();
        dist[origin] = 0.0;
        heap.push(QueueEntry {
            node: origin,
            cost: 0.0,
            estimate: 0.0,
        });
        let mut expanded = 0;
        while let Some(entry) = heap.pop() {
            if settled[entry.node] {
                continue;
            }
            settled[entry.node] = true;
            expanded += 1;
            if entry.node == destination {
                // walk `prev` back from the destination
                path.clear();
                let mut cursor = destination;
                while cursor != origin {
                    let (from, id) = prev[cursor];
                    path.push(id);
                    cursor = from;
                }
                return Some((entry.cost, expanded));
            }
            let ids = network.edge_ids(entry.node);
            for (id, edge) in ids.zip(network.edges(entry.node)) {
                let mut edge_cost = edge_costs[id];
                if penalized[id] {
                    edge_cost *= PENALTY;
                }
                let cost = entry.cost + edge_cost;
                if cost < dist[edge.to] {
                    dist[edge.to] = cost;
                    prev[edge.to] = (entry.node, id);
                    let h = if use_heuristic {
                        network.heuristic_s(edge.to, destination)
                    } else {
                        0.0
                    };
                    heap.push(QueueEntry {
                        node: edge.to,
                        cost,
                        estimate: cost + h,
                    });
                }
            }
        }
        None
    }
}

/// A* shortest path under the current traffic (Dijkstra when
/// `use_heuristic` is false). Departure time is held constant during the
/// search — adequate for the sub-hour urban routes we serve.
///
/// Returns `None` if the destination is unreachable.
pub fn shortest_path(
    network: &RoadNetwork,
    traffic: &TrafficModel,
    origin: usize,
    destination: usize,
    time_of_day_s: f64,
    use_heuristic: bool,
) -> Option<Route> {
    RoutePlanner::new(network, traffic, time_of_day_s).shortest_path(
        origin,
        destination,
        use_heuristic,
    )
}

/// Computes up to `k` alternative routes by iterative edge penalization:
/// after each route is found, the edges it took cost four times as much
/// and the search repeats, yielding progressively different paths.
/// Returns the distinct routes in discovery order (first = fastest),
/// each costed at the unpenalized cost of the edges it took. This is the
/// navigation server's quality knob. Its effort grows faster than `k`,
/// because every round searches a more penalized network. A
/// `NavEvaluator::city(2016)` probe (three origin–destination pairs)
/// expands 192 nodes at `k = 1` and 3,425 at `k = 8`, averaged over the
/// four archetype feature sets: ×18 the work for ×8 the routes. The wall
/// cost per expansion stays flat in `k`, because a relaxation reads a
/// precomputed edge cost and a penalty flag.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn alternative_routes(
    network: &RoadNetwork,
    traffic: &TrafficModel,
    origin: usize,
    destination: usize,
    time_of_day_s: f64,
    k: usize,
) -> Vec<Route> {
    RoutePlanner::new(network, traffic, time_of_day_s).alternative_routes(origin, destination, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (RoadNetwork, TrafficModel) {
        let mut rng = StdRng::seed_from_u64(10);
        (
            RoadNetwork::city_grid(16, &mut rng),
            TrafficModel::weekday(),
        )
    }

    #[test]
    fn dijkstra_and_astar_agree_on_cost() {
        let (network, traffic) = setup();
        let (a, b) = (0, network.len() - 1);
        let dij = shortest_path(&network, &traffic, a, b, 3600.0, false).unwrap();
        let astar = shortest_path(&network, &traffic, a, b, 3600.0, true).unwrap();
        assert!(
            (dij.travel_time_s - astar.travel_time_s).abs() < 1e-6,
            "dijkstra {} vs a* {}",
            dij.travel_time_s,
            astar.travel_time_s
        );
        // a* expands fewer nodes
        assert!(astar.expanded <= dij.expanded);
    }

    #[test]
    fn routes_are_connected_paths() {
        let (network, traffic) = setup();
        let route = shortest_path(&network, &traffic, 5, 200, 0.0, true).unwrap();
        assert_eq!(*route.nodes.first().unwrap(), 5);
        assert_eq!(*route.nodes.last().unwrap(), 200);
        for pair in route.nodes.windows(2) {
            assert!(
                network.edges(pair[0]).iter().any(|e| e.to == pair[1]),
                "missing edge {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn rush_hour_routes_are_slower() {
        let (network, traffic) = setup();
        let (a, b) = (0, network.len() - 1);
        let night = shortest_path(&network, &traffic, a, b, 3.0 * 3600.0, true).unwrap();
        let rush = shortest_path(&network, &traffic, a, b, 8.0 * 3600.0, true).unwrap();
        assert!(rush.travel_time_s > night.travel_time_s * 1.3);
    }

    #[test]
    fn alternatives_are_distinct_and_ranked() {
        let (network, traffic) = setup();
        let routes = alternative_routes(&network, &traffic, 3, 250, 3600.0, 4);
        assert!(routes.len() >= 2, "got {} alternatives", routes.len());
        for (i, a) in routes.iter().enumerate() {
            for b in &routes[i + 1..] {
                assert_ne!(a.nodes, b.nodes, "duplicate alternative");
            }
        }
        // first route is the fastest
        for other in &routes[1..] {
            assert!(routes[0].travel_time_s <= other.travel_time_s + 1e-6);
        }
    }

    #[test]
    fn more_alternatives_cost_more_effort() {
        let (network, traffic) = setup();
        let effort = |k: usize| -> usize {
            alternative_routes(&network, &traffic, 0, network.len() - 1, 3600.0, k)
                .iter()
                .map(|r| r.expanded)
                .sum()
        };
        assert!(effort(6) > effort(1) * 3);
    }

    #[test]
    fn alternatives_cost_and_penalize_the_edge_the_search_took() {
        // every street of a 2×2 grid has a parallel highway, listed after
        // it; at rush hour the search takes the highway from 0 to 1
        let network = RoadNetwork::city_grid(2, &mut StdRng::seed_from_u64(3));
        let traffic = TrafficModel::weekday();
        let rush = 8.0 * 3600.0;
        let best = shortest_path(&network, &traffic, 0, 1, rush, true).unwrap();
        let routes = alternative_routes(&network, &traffic, 0, 1, rush, 3);
        assert_eq!(routes[0].nodes, best.nodes);
        assert_eq!(
            routes[0].travel_time_s, best.travel_time_s,
            "costed on the highway"
        );
        // round 2 takes the parallel street (the same nodes, dropped);
        // with both penalized, round 3 goes round the block
        assert_eq!(routes.len(), 2, "{routes:?}");
        assert_eq!(routes[1].nodes, [0, 2, 3, 1]);
    }

    #[test]
    fn same_node_route_is_trivial() {
        let (network, traffic) = setup();
        let route = shortest_path(&network, &traffic, 7, 7, 0.0, true).unwrap();
        assert_eq!(route.nodes, vec![7]);
        assert_eq!(route.travel_time_s, 0.0);
    }

    /// The planner the route planner replaced, kept verbatim apart from
    /// reading the congestion multiplier through `profile` and
    /// `incidents_at`: a fresh search per call, the multiplier recomputed
    /// on every relaxation, a linear scan of the penalty list, and the
    /// route re-costed on the first edge to each next node.
    mod oracle {
        use super::super::{QueueEntry, Route};
        use crate::nav::graph::RoadNetwork;
        use crate::nav::traffic::TrafficModel;
        use std::collections::BinaryHeap;

        fn multiplier(
            traffic: &TrafficModel,
            from: usize,
            edge_index: usize,
            highway: bool,
            time_of_day_s: f64,
        ) -> f64 {
            let mut m = traffic.profile(highway, time_of_day_s);
            for incident in traffic.incidents_at(time_of_day_s) {
                if incident.from == from && incident.edge_index == edge_index {
                    m *= incident.severity;
                }
            }
            m
        }

        fn edge_cost(
            network: &RoadNetwork,
            traffic: &TrafficModel,
            from: usize,
            edge_index: usize,
            time_of_day_s: f64,
            penalties: Option<&[(usize, usize)]>,
        ) -> f64 {
            let edge = network.edges(from)[edge_index];
            let mut cost = edge.base_time_s
                * multiplier(traffic, from, edge_index, edge.highway, time_of_day_s);
            if let Some(penalized) = penalties {
                if penalized.contains(&(from, edge_index)) {
                    cost *= 4.0;
                }
            }
            cost
        }

        pub(super) fn shortest_path_penalized(
            network: &RoadNetwork,
            traffic: &TrafficModel,
            origin: usize,
            destination: usize,
            time_of_day_s: f64,
            use_heuristic: bool,
            penalties: Option<&[(usize, usize)]>,
        ) -> Option<Route> {
            let n = network.len();
            let mut dist = vec![f64::INFINITY; n];
            let mut prev = vec![usize::MAX; n];
            let mut settled = vec![false; n];
            let mut heap = BinaryHeap::new();
            dist[origin] = 0.0;
            heap.push(QueueEntry {
                node: origin,
                cost: 0.0,
                estimate: 0.0,
            });
            let mut expanded = 0;
            while let Some(entry) = heap.pop() {
                if settled[entry.node] {
                    continue;
                }
                settled[entry.node] = true;
                expanded += 1;
                if entry.node == destination {
                    let mut nodes = vec![destination];
                    let mut cursor = destination;
                    while cursor != origin {
                        cursor = prev[cursor];
                        nodes.push(cursor);
                    }
                    nodes.reverse();
                    return Some(Route {
                        nodes,
                        travel_time_s: entry.cost,
                        expanded,
                    });
                }
                for (edge_index, edge) in network.edges(entry.node).iter().enumerate() {
                    let cost = entry.cost
                        + edge_cost(
                            network,
                            traffic,
                            entry.node,
                            edge_index,
                            time_of_day_s,
                            penalties,
                        );
                    if cost < dist[edge.to] {
                        dist[edge.to] = cost;
                        prev[edge.to] = entry.node;
                        let h = if use_heuristic {
                            network.heuristic_s(edge.to, destination)
                        } else {
                            0.0
                        };
                        heap.push(QueueEntry {
                            node: edge.to,
                            cost,
                            estimate: cost + h,
                        });
                    }
                }
            }
            None
        }

        pub(super) fn alternative_routes(
            network: &RoadNetwork,
            traffic: &TrafficModel,
            origin: usize,
            destination: usize,
            time_of_day_s: f64,
            k: usize,
        ) -> Vec<Route> {
            let mut routes: Vec<Route> = Vec::new();
            let mut penalties: Vec<(usize, usize)> = Vec::new();
            for _ in 0..k {
                let found = shortest_path_penalized(
                    network,
                    traffic,
                    origin,
                    destination,
                    time_of_day_s,
                    true,
                    Some(&penalties),
                );
                let Some(route) = found else { break };
                let mut true_cost = 0.0;
                for pair in route.nodes.windows(2) {
                    if let Some(edge_index) =
                        network.edges(pair[0]).iter().position(|e| e.to == pair[1])
                    {
                        penalties.push((pair[0], edge_index));
                        true_cost +=
                            edge_cost(network, traffic, pair[0], edge_index, time_of_day_s, None);
                    }
                }
                let mut route = route;
                route.travel_time_s = true_cost;
                if routes.iter().all(|r: &Route| r.nodes != route.nodes) {
                    routes.push(route);
                }
            }
            routes
        }
    }

    fn assert_same(planner: &Route, oracle: &Route, what: &str) {
        assert_eq!(planner.nodes, oracle.nodes, "{what}: nodes");
        assert_eq!(planner.expanded, oracle.expanded, "{what}: expanded");
        assert_eq!(
            planner.travel_time_s.to_bits(),
            oracle.travel_time_s.to_bits(),
            "{what}: travel time {} vs {}",
            planner.travel_time_s,
            oracle.travel_time_s
        );
    }

    #[test]
    fn the_planner_reproduces_the_old_search_bit_for_bit() {
        const HOURS: [f64; 5] = [3.0, 8.0, 12.0, 17.5, 23.0];
        let grids: Vec<(usize, RoadNetwork, [TrafficModel; 2])> = [(16, 11), (14, 12)]
            .into_iter()
            .map(|(n, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let network = RoadNetwork::city_grid(n, &mut rng);
                let jammed = TrafficModel::weekday().with_incidents(40, network.len(), &mut rng);
                (n, network, [TrafficModel::weekday(), jammed])
            })
            .collect();
        let mut pairs = StdRng::seed_from_u64(32);
        let mut routes_checked = 0;
        for (g, (n, network, traffics)) in grids.iter().enumerate() {
            for (ti, traffic) in traffics.iter().enumerate() {
                for (hi, hour) in HOURS.into_iter().enumerate() {
                    let t = hour * 3600.0;
                    // a second planner reruns every case in the memory a
                    // planner on the other grid, the other traffic model
                    // and the next hour left behind
                    let (_, other, other_traffics) = &grids[1 - g];
                    let mut previous = RoutePlanner::new(
                        other,
                        &other_traffics[1 - ti],
                        HOURS[(hi + 1) % HOURS.len()] * 3600.0,
                    );
                    previous.alternative_routes(0, other.len() - 1, 8);
                    let mut planners = [
                        RoutePlanner::new(network, traffic, t),
                        RoutePlanner::with_scratch(network, traffic, t, previous.into_scratch()),
                    ];
                    for case in 0..12 {
                        let origin = pairs.gen_range(0..network.len());
                        let destination = pairs.gen_range(0..network.len());
                        // k cycles 1..=8 over the pairs of each hour
                        let k = case % 8 + 1;
                        let shortest = [true, false].map(|use_heuristic| {
                            oracle::shortest_path_penalized(
                                network,
                                traffic,
                                origin,
                                destination,
                                t,
                                use_heuristic,
                                None,
                            )
                            .unwrap()
                        });
                        let want =
                            oracle::alternative_routes(network, traffic, origin, destination, t, k);
                        for (p, planner) in planners.iter_mut().enumerate() {
                            let what =
                                format!("planner {p}, {n}x{n} {hour} h {origin}->{destination}");
                            for (use_heuristic, want) in [true, false].into_iter().zip(&shortest) {
                                let got = planner.shortest_path(origin, destination, use_heuristic);
                                assert_same(&got.unwrap(), want, &what);
                            }
                            let got = planner.alternative_routes(origin, destination, k);
                            assert_eq!(got.len(), want.len(), "{what} k = {k}: route count");
                            for (route, expected) in got.iter().zip(&want) {
                                assert_same(route, expected, &format!("{what} k = {k}"));
                            }
                            routes_checked += got.len();
                        }
                    }
                }
            }
        }
        assert!(routes_checked > 1_000, "checked {routes_checked} routes");
    }

    /// The summary the navigation evaluator used to fold from the route
    /// list.
    fn summarise(routes: &[Route]) -> Option<Alternatives> {
        let first = routes.first()?;
        Some(Alternatives {
            count: routes.len(),
            expanded: routes.iter().map(|r| r.expanded).sum(),
            first_travel_time_s: first.travel_time_s,
            best_travel_time_s: routes
                .iter()
                .map(|r| r.travel_time_s)
                .fold(f64::INFINITY, f64::min),
        })
    }

    #[test]
    fn alternatives_summarise_alternative_routes_bit_for_bit() {
        let (network, traffic) = setup();
        let bits = |found: Option<Alternatives>| {
            found.map(|a| {
                (
                    a.count,
                    a.expanded,
                    a.first_travel_time_s.to_bits(),
                    a.best_travel_time_s.to_bits(),
                )
            })
        };
        let mut pairs = StdRng::seed_from_u64(33);
        let mut scratch = PlannerScratch::default();
        let mut several = 0;
        for hour in [3.0, 8.0, 17.5] {
            let mut planner =
                RoutePlanner::with_scratch(&network, &traffic, hour * 3600.0, scratch);
            for k in 1..=8 {
                for _ in 0..6 {
                    let origin = pairs.gen_range(0..network.len());
                    let destination = pairs.gen_range(0..network.len());
                    let routes = planner.alternative_routes(origin, destination, k);
                    let found = planner.alternatives(origin, destination, k);
                    assert_eq!(
                        bits(found),
                        bits(summarise(&routes)),
                        "{hour} h {origin}->{destination} k = {k}"
                    );
                    several += usize::from(routes.len() > 1);
                }
            }
            scratch = planner.into_scratch();
        }
        assert!(several > 50, "{several} pairs with more than one route");
    }
}
