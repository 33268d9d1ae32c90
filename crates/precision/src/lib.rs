//! # antarex-precision — customized-precision autotuning
//!
//! "In recent years, customized precision has emerged as a promising
//! approach to achieve power/performance trade-offs when an application can
//! tolerate some loss of quality" (Silvano et al., DATE 2016, §IV). This
//! crate implements the precision-autotuning work package over the mini-C
//! substrate:
//!
//! * [`vars`] — inventory of the floating-point declarations of a function
//!   (parameters, locals, arrays, return type) and type rewriting;
//! * [`profile`] — dynamic-range profiling of function parameters across a
//!   test-input set ("data acquired at runtime, e.g. dynamic range of
//!   function parameters");
//! * `error` — the output-quality metric (worst-case relative error);
//! * [`tuner`] — a Precimonious-style greedy search that lowers each
//!   variable's mantissa width as far as an error budget allows, measuring
//!   quality against the full-precision output and energy via the
//!   interpreter's precision-weighted
//!   [`flop_energy`](antarex_ir::cost::ExecStats::flop_energy).
//!
//! # Examples
//!
//! ```
//! use antarex_ir::parse_program;
//! use antarex_precision::tuner::{PrecisionTuner, TunerOptions};
//! use antarex_ir::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "double axpy(double a, double x, double y) {
//!          double t = a * x;
//!          return t + y;
//!      }",
//! )?;
//! let inputs: Vec<Vec<Value>> = (1..=8)
//!     .map(|i| vec![Value::Float(1.5), Value::Float(i as f64), Value::Float(0.25)])
//!     .collect();
//! let tuner = PrecisionTuner::new(program, "axpy", inputs);
//! let outcome = tuner.tune(&TunerOptions { error_budget: 1e-2, ..TunerOptions::default() })?;
//! assert!(outcome.energy_ratio < 1.0, "some precision was shed");
//! assert!(outcome.max_rel_error <= 1e-2);
//! # Ok(())
//! # }
//! ```

pub(crate) mod error;
pub mod profile;
pub mod tuner;
pub mod vars;
