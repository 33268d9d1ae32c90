//! # antarex-core — the ANTAREX tool flow
//!
//! Ties the workspace together into the flow of the paper's Fig. 1
//! (Silvano et al., DATE 2016): C/C++ functional descriptions plus
//! ANTAREX DSL specifications go through the source-to-source compiler and
//! weaver; split compilation defers specialization to runtime; the
//! application autotuner and the runtime resource manager close their
//! control loops around the running application.
//!
//! * [`flow`] — [`flow::ToolFlow`]: parse → weave → deploy; the
//!   deployed [`flow::Runtime`] executes the woven program with
//!   dynamic weaving installed;
//! * [`scenario`] — the canonical mini-C kernels used by examples, tests
//!   and benchmarks;
//! * [`exascale`] — the projection toward the 20–30 MW Exascale envelope
//!   the paper opens with (§I): efficiency-driven power extrapolation and
//!   Amdahl scaling.
//!
//! # Examples
//!
//! ```
//! use antarex_core::flow::ToolFlow;
//! use antarex_core::scenario;
//! use antarex_dsl::figures::FIG3_UNROLL_INNERMOST_LOOPS;
//! use antarex_dsl::DslValue;
//!
//! # fn main() -> Result<(), antarex_core::FlowError> {
//! let mut flow = ToolFlow::new(scenario::SUMSQ_KERNEL, FIG3_UNROLL_INNERMOST_LOOPS)?;
//! flow.weave(
//!     "UnrollInnermostLoops",
//!     &[DslValue::FuncRef("sumsq16".into()), DslValue::Int(32)],
//! )?;
//! let mut runtime = flow.deploy();
//! let (value, stats) = runtime.call(
//!     "sumsq16",
//!     &[antarex_ir::value::Value::from(vec![1.0; 16])],
//! )?;
//! assert_eq!(value, antarex_ir::value::Value::Float(16.0));
//! assert_eq!(stats.loop_iters, 0, "the loop was unrolled away");
//! # Ok(())
//! # }
//! ```

pub mod exascale;
pub mod flow;
pub mod scenario;

pub use flow::FlowError;
