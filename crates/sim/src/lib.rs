//! # antarex-sim — heterogeneous HPC platform simulator
//!
//! The ANTAREX runtime work package (Silvano et al., DATE 2016, §V–§VI)
//! targets petascale machines — CINECA's Xeon+MIC cluster and IT4I's
//! Salomon — whose physical behaviour drives every claim in the paper:
//! per-chip manufacturing variability (≈15% energy spread), frequency/
//! voltage-dependent power (18–50% energy left on the table by the default
//! Linux governor), and an ambient-temperature-dependent cooling plant
//! (>10% PUE degradation from winter to summer). This crate simulates
//! those mechanisms:
//!
//! * `dvfs` — P-state tables (frequency/voltage pairs);
//! * `power` — dynamic (`C·V²·f`) plus temperature-dependent leakage
//!   power;
//! * [`thermal`] — first-order RC thermal model per node;
//! * [`variability`] — per-chip process variation (leakage and frequency);
//! * `accelerator` — GPGPU and MIC (Xeon Phi) accelerator models;
//! * [`node`] — a compute node: roofline execution model over cores +
//!   accelerators, DVFS, power and thermal integration;
//! * [`cooling`] — chiller/free-cooling plant with seasonal ambient
//!   temperature and PUE accounting;
//! * [`job`] / [`workload`] — tasks, jobs and the workload generators used
//!   by the use cases (including the heavy-tailed docking sweep);
//! * [`sched`] — deterministic virtual schedulers (static list, block,
//!   LPT-by-estimate, work stealing) for heavy-tailed task batches;
//! * [`faults`] — deterministic fault injection (node crashes, sensor
//!   dropouts/stuck-at readings, power-rail spikes, interconnect
//!   degradation, gray slowdowns) for the resiliency experiments.
//!
//! All stochastic components draw from caller-provided RNGs; the simulator
//! is fully deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use antarex_sim::node::{Node, NodeSpec};
//! use antarex_sim::job::WorkUnit;
//!
//! let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
//! let outcome = node.execute(&WorkUnit::compute_bound(1e12));
//! assert!(outcome.time_s > 0.0);
//! assert!(outcome.energy_j > 0.0);
//! ```

pub(crate) mod accelerator;
pub mod cooling;
pub(crate) mod dvfs;
pub(crate) mod error;
pub mod faults;
pub mod interconnect;
pub mod job;
pub mod node;
pub(crate) mod power;
pub mod sched;
pub mod thermal;
pub mod variability;
pub mod workload;
