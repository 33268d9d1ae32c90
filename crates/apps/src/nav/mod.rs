//! Use Case 2: self-adaptive navigation system.
//!
//! "To solve the growing automotive traffic load, it is necessary to find
//! the best utilization of an existing road network, under a variable
//! workload ... The efficient operation of such a system depends strongly
//! on balancing data collection, big data analysis and extreme
//! computational power" (§VII-b).
//!
//! The server-side planner answers routing requests on a synthetic road
//! network with time-dependent congestion. Its software knob is the
//! number of *alternative routes* computed per request (more alternatives
//! → better traffic-aware choices, more CPU per request). Under rush-hour
//! load the ANTAREX runtime dials the knob down to hold the latency SLA.

pub(crate) mod error;
pub(crate) mod graph;
pub mod route;
pub(crate) mod server;
pub(crate) mod traffic;

pub use graph::RoadNetwork;
pub use route::{alternative_routes, shortest_path};
pub use server::NavigationServer;
pub use traffic::TrafficModel;
