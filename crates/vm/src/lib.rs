//! # antarex-vm — metered bytecode VM for the mini-C substrate
//!
//! The tree-walking interpreter in `antarex-ir` is the *executable
//! reference*: it defines what a woven program computes and what it
//! costs. This crate is the fast path: it lowers the same AST to a
//! compact stack bytecode with the cost metering *woven in
//! at lowering time* (fused per-basic-block `Instr::Meter`
//! instructions instead of per-node charges), executes it on a [`Vm`],
//! and memoizes the instrumented bytecode in a hash-keyed
//! [`InstrumentedCodeCache`] so a `(program digest, metering params)`
//! pair lowers once and is shared across tenants, DSE rounds and
//! precision sweeps.
//!
//! Execution is tiered: the stack chunk is the instrumentation format,
//! a lazily derived register form (fused superinstructions, direct
//! frame-index operands) is what the dispatch loop runs, and recognized
//! metered loop idioms — reduce and three-tap stencil — execute as
//! native traces with the exact charge schedule, falling back to
//! generic dispatch whenever entry validation cannot prove equivalence.
//!
//! The contract — enforced by the differential suite in `tests/` — is
//! **bit-identity** with the interpreter on everything observable:
//! return values, every [`ExecStats`](antarex_ir::cost::ExecStats)
//! counter including `flop_energy` to the last bit, reduced-precision
//! quantization, host-call traces (the join-point observability channel)
//! and errors. Both engines sit behind the
//! [`Executor`](antarex_ir::Executor) trait, so consumers choose an
//! engine by constructor, not by API.
//!
//! # Examples
//!
//! ```
//! use antarex_ir::{cost::CostModel, interp::ExecEnv, parse_program, value::Value};
//! use antarex_vm::{InstrumentedCodeCache, Vm};
//!
//! # fn main() -> Result<(), antarex_ir::IrError> {
//! let cache = InstrumentedCodeCache::new();
//! let program = parse_program(
//!     "double sumsq(double a[], int n) {
//!          double s = 0.0;
//!          for (int i = 0; i < n; i++) { s += a[i] * a[i]; }
//!          return s;
//!      }",
//! )?;
//! // first tenant lowers; every later tenant with the same program and
//! // cost model reuses the instrumented bytecode
//! let mut vm = Vm::with_cache(program, CostModel::new(), &cache);
//! let mut env = ExecEnv::new();
//! let out = vm.call(
//!     "sumsq",
//!     &[Value::from(vec![1.0, 2.0, 3.0]), Value::Int(3)],
//!     &mut env,
//! )?;
//! assert_eq!(out, Value::Float(14.0));
//! assert!(env.stats.flops >= 6);
//! # Ok(())
//! # }
//! ```

pub(crate) mod bytecode;
pub(crate) mod cache;
pub(crate) mod digest;
pub(crate) mod lower;
pub(crate) mod reg;
pub(crate) mod trace;
pub(crate) mod vm;

pub use cache::InstrumentedCodeCache;
pub use digest::CodeKey;
pub use lower::{lower_function, lower_program};
pub use vm::Vm;
