//! # antarex-e2e — the wall-clock benchmark
//!
//! Every other number in this repository is virtual time. This crate
//! runs fixed workloads through the real stack on the wall clock and
//! reports what a user of the system sees (requests per second, batch
//! latency, allocations, memory), plus a per-layer budget
//! measured **from outside**: spans around the calls into each layer's
//! public functions, recorded from this crate's own files.
//!
//! See `README.md` for the workloads, the metric definitions and how
//! the layers map onto the end-to-end numbers.

pub mod alloc;
pub mod cli;
pub mod layers;
pub mod measure;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod timed;
pub mod workload;
