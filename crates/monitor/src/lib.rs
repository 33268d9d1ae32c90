//! # antarex-monitor — runtime monitoring infrastructure
//!
//! The ANTAREX runtime (Silvano et al., DATE 2016, §II and §IV) keeps every
//! application under continuous observation: "the application is
//! continuously monitored to guarantee the required Service Level Agreement
//! (SLA)", with "an application level collect-analyse-decide-act loop"
//! feeding the autotuner and the resource manager. This crate is that
//! layer:
//!
//! * [`series`] — bounded time series with whole-window and
//!   since-a-time means, the history behind every SLA;
//! * [`sla`] — service-level objectives over monitored metrics, with
//!   violation accounting and error-budget burn rates;
//! * [`resilient`] — a sensor channel hardened against dropouts
//!   (hold → EWMA → unavailable), the ladder the cluster controller's
//!   telemetry rests on.
//!
//! The loop itself runs where its stages live: `AppManager::adapt` in
//! `antarex-tuner` collects these series, analyses them, decides and acts
//! in one round.
//!
//! Time is always supplied by the caller (simulated seconds), keeping every
//! component deterministic.
//!
//! # Examples
//!
//! ```
//! use antarex_monitor::series::TimeSeries;
//!
//! let mut latency = TimeSeries::with_capacity(128);
//! for (t, v) in [(0.0, 12.0), (1.0, 15.0), (2.0, 11.0)] {
//!     latency.push(t, v);
//! }
//! assert_eq!(latency.len(), 3);
//! assert!((latency.mean().unwrap() - 12.666).abs() < 0.01);
//! ```

pub mod resilient;
pub mod series;
pub mod sla;

pub use resilient::{Fill, ResilientSensor};
pub use sla::Sla;
